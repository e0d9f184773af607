package engine

import (
	"slices"

	"repro/internal/tcdm"
)

// SyncKey names a RunSynced unit by value, so a unit rebuilt after
// Reset finds what its twin recorded. Equal keys must name equal jobs:
// the same phases, footprints and cores over the same TCDM addresses. A
// caller whose plans are a deterministic function of a few dimensions
// and of the allocator position they were laid out from keys them by
// exactly that. The zero key memoizes nothing.
type SyncKey struct {
	Dims  [6]int        // the plans' dimensions and options, in the caller's order
	Arena tcdm.Position // the allocator position the plans were laid out from
	Unit  int           // which of the plans' units
}

// syncMemoCap bounds a machine's memo entries. A sequential chain
// coordinate takes 13 (one per stage and entry I$ state: four FFT and
// four beamforming entries, two channel estimations, the noise combine
// and two detections), so a pooled machine keeps four coordinates
// whole; past the cap the least recently used entry is recorded over.
const syncMemoCap = 64

// syncMemo is the measured effect of one simulated RunSynced unit from
// one entry I$ state: what its jobs added to every core's clock and
// Stats and to the reservation counters. The closing barrier is not
// part of it; it always runs for real.
type syncMemo struct {
	key  SyncKey
	used uint64 // the memo clock at the entry's last use

	// Entry I$ state, one copy per distinct tile state: tile t is in
	// state icOf[t], whose LRU order is icOrder[icEnd[s-1]:icEnd[s]]
	// and footprints the matching icLines.
	icOf    []int32
	icOrder []string
	icLines []int
	icEnd   []int

	// Per-core deltas, one copy per distinct delta: core c adds
	// delta[deltaOf[c]].
	deltaOf               []int32
	delta                 []coreDelta
	dAccesses, dConflicts int64
}

// coreDelta is what a unit adds to one core's clock and Stats.
type coreDelta struct {
	time  int64
	stats Stats
}

// RunSynced runs jobs and then the closing ClusterBarrier, one stage of
// a sequential-layout chain. key names the jobs by value (see SyncKey);
// entries survive Reset, so a rebuilt unit under the same key replays
// what an earlier one recorded.
//
// The result is Run followed by ClusterBarrier, cycle for cycle, but a
// unit that repeats is not simulated again. When a key starts again
// from a state it was simulated from — every core at one cycle and
// every tile's I$ contents, footprints and LRU order as then — its
// phases run untimed (data reads and writes, I$ updates, no bank
// booking) and the memoized per-core clock, Stats and reservation-counter
// deltas are applied. A key keeps one entry per entry I$ state, up to
// syncMemoCap entries per machine. Units with a NotBefore job, or on a
// machine with a Tracer or DebugRaces, are always simulated (see
// docs/ARCHITECTURE.md, "Steady-state symbol replay").
func (m *Machine) RunSynced(key SyncKey, jobs ...Job) error {
	if err := m.validateJobs(jobs); err != nil {
		return err
	}
	if !m.replayable(key, jobs) {
		m.run(jobs)
		m.ClusterBarrier()
		return nil
	}
	t0 := m.coreTime[0]
	if m.memoStats == nil {
		m.memoStats = make([]Stats, len(m.coreStats))
	}
	copy(m.memoStats, m.coreStats)
	if e := m.memoFind(key); e != nil {
		m.replay(e, jobs, t0)
	} else {
		m.record(key, jobs, t0)
	}
	m.ClusterBarrier()
	return nil
}

// replayable reports whether a unit may use the memo: its timing must
// be a function of the key and the I$ state alone.
func (m *Machine) replayable(key SyncKey, jobs []Job) bool {
	if key == (SyncKey{}) || m.Tracer != nil || m.DebugRaces {
		return false
	}
	for ji := range jobs {
		if jobs[ji].NotBefore > 0 {
			return false
		}
	}
	// Every core at one cycle: each earlier booking then lies before it,
	// since Run drains a core's LSU before its clock moves on.
	for _, t := range m.coreTime {
		if t != m.coreTime[0] {
			return false
		}
	}
	return true
}

// memoFind returns key's entry recorded from the current I$ state, or
// nil.
func (m *Machine) memoFind(key SyncKey) *syncMemo {
	m.memoClock++
	for i := range m.memos {
		if e := &m.memos[i]; e.key == key && e.matches(m.icache) {
			e.used = m.memoClock
			return e
		}
	}
	return nil
}

// record simulates the unit's jobs from cycle t0 and memoizes their
// entry I$ state and deltas under key. The recording goes to scratch
// first, so a phase that panics leaves every entry as it was.
func (m *Machine) record(key SyncKey, jobs []Job, t0 int64) {
	s := &m.memoScratch
	s.snapICache(m.icache)
	res := m.Mem.Res
	acc, confl := res.Accesses(), res.ConflictCycles()
	m.run(jobs)
	s.dAccesses, s.dConflicts = res.Accesses()-acc, res.ConflictCycles()-confl
	s.deltaOf, s.delta = s.deltaOf[:0], s.delta[:0]
	for c, t := range m.coreTime {
		d := coreDelta{time: t - t0, stats: m.coreStats[c].Sub(m.memoStats[c])}
		i := slices.Index(s.delta, d)
		if i < 0 {
			i = len(s.delta)
			s.delta = append(s.delta, d)
		}
		s.deltaOf = append(s.deltaOf, int32(i))
	}
	e := m.memoVictim()
	e.store(s)
	e.key, e.used = key, m.memoClock
}

// replay runs the unit's jobs untimed and applies e's deltas to the
// clocks (all at t0) and to the Stats saved in memoStats.
func (m *Machine) replay(e *syncMemo, jobs []Job, t0 int64) {
	// A phase that panics must not leave the machine untimed: callers
	// such as the calibration grid recover and reuse the machine.
	m.procScratch.untimed = true
	defer func() { m.procScratch.untimed = false }()
	m.run(jobs)
	for c := range m.coreTime {
		d := &e.delta[e.deltaOf[c]]
		m.coreTime[c] = t0 + d.time
		st := m.memoStats[c]
		st.Add(d.stats)
		m.coreStats[c] = st
	}
	m.Mem.Res.AddReplayed(e.dAccesses, e.dConflicts)
	m.replayed++
}

// memoVictim returns the entry a new recording goes to: a new one below
// the cap, else the least recently used.
func (m *Machine) memoVictim() *syncMemo {
	if n := len(m.memos); n < syncMemoCap {
		if m.memos == nil {
			m.memos = make([]syncMemo, 0, syncMemoCap)
		}
		m.memos = m.memos[:n+1]
		return &m.memos[n]
	}
	v := &m.memos[0]
	for i := range m.memos {
		if m.memos[i].used < v.used {
			v = &m.memos[i]
		}
	}
	return v
}

// snapICache records every tile's I$ state in e, one copy per distinct
// state.
func (e *syncMemo) snapICache(icache []tileICache) {
	e.icOf, e.icOrder, e.icLines, e.icEnd = e.icOf[:0], e.icOrder[:0], e.icLines[:0], e.icEnd[:0]
	for t := range icache {
		ic := &icache[t]
		s, lo := len(e.icEnd), 0
		for i, hi := range e.icEnd {
			if e.holds(ic, lo, hi) {
				s = i
				break
			}
			lo = hi
		}
		if s == len(e.icEnd) {
			for _, k := range ic.order {
				e.icOrder = append(e.icOrder, k)
				e.icLines = append(e.icLines, ic.resident[k])
			}
			e.icEnd = append(e.icEnd, len(e.icOrder))
		}
		e.icOf = append(e.icOf, int32(s))
	}
}

// matches reports whether every tile's I$ is in e's entry state.
func (e *syncMemo) matches(icache []tileICache) bool {
	for t := range icache {
		s, lo := e.icOf[t], 0
		if s > 0 {
			lo = e.icEnd[s-1]
		}
		if !e.holds(&icache[t], lo, e.icEnd[s]) {
			return false
		}
	}
	return true
}

// holds reports whether ic's LRU order and footprints are
// icOrder[lo:hi] and icLines[lo:hi].
func (e *syncMemo) holds(ic *tileICache, lo, hi int) bool {
	if !slices.Equal(ic.order, e.icOrder[lo:hi]) {
		return false
	}
	for i, k := range ic.order {
		if ic.resident[k] != e.icLines[lo+i] {
			return false
		}
	}
	return true
}

// store copies the recording in s into e, each slice sized to fit once:
// an evicted entry's storage is reused when it is large enough.
func (e *syncMemo) store(s *syncMemo) {
	e.icOf = refill(e.icOf, s.icOf)
	e.icOrder = refill(e.icOrder, s.icOrder)
	e.icLines = refill(e.icLines, s.icLines)
	e.icEnd = refill(e.icEnd, s.icEnd)
	e.deltaOf = refill(e.deltaOf, s.deltaOf)
	e.delta = refill(e.delta, s.delta)
	e.dAccesses, e.dConflicts = s.dAccesses, s.dConflicts
}

// refill copies src into dst's storage, allocating exactly len(src)
// when dst is too small.
func refill[T any](dst, src []T) []T {
	if cap(dst) < len(src) {
		dst = make([]T, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}
