package engine

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/tcdm"
)

// SyncKey names a memoized unit — a RunSynced stage or a slot opened by
// BeginSlot — by value, so a unit rebuilt after Reset finds what its
// twin recorded. Equal keys must name equal jobs: the same phases,
// footprints and cores over the same TCDM addresses, Run after Run. A
// caller whose plans are a deterministic function of a few dimensions
// and of the allocator position they were laid out from keys them by
// exactly that. The zero key memoizes nothing.
type SyncKey struct {
	Dims  [10]int       // the plans' dimensions and options, in the caller's order
	Arena tcdm.Position // the allocator position the plans were laid out from
	Unit  int           // which of the plans' units
}

// syncMemoCap bounds a machine's memo entries. A sequential chain
// coordinate takes 13 (one per stage and entry I$ state: four FFT and
// four beamforming entries, two channel estimations, the noise combine
// and two detections) and a pipelined one a single slot entry, so a
// pooled machine keeps four sequential coordinates whole; past the cap
// the least recently used entry is recorded over.
const syncMemoCap = 64

// syncMemo is the measured effect of one memoized unit: a RunSynced
// stage from one entry I$ state, which is one Run, or a whole slot from
// the Reset state, which is every Run between BeginSlot and EndSlot.
// The closing barrier of a stage is not part of it; it always runs for
// real.
type syncMemo struct {
	key  SyncKey
	slot bool   // a BeginSlot unit, not a RunSynced stage
	used uint64 // the memo clock at the entry's last use

	// A stage's entry I$ state, one copy per distinct tile state: tile t
	// is in state icOf[t], whose LRU order is icOrder[icEnd[s-1]:icEnd[s]]
	// and footprints the matching icLines. A slot's entry state is the
	// Reset state, so it keeps none.
	icOf    []int32
	icOrder []string
	icLines []int
	icEnd   []int

	// The unit's Runs. Run r issued jobs[runs[r-1].end:runs[r].end], and
	// job j listed the cores of cores[jobs[j-1].end:jobs[j].end]; each of
	// those added delta[cores[i].delta] to its clock and Stats, one copy
	// per distinct delta.
	runs  []memoRun
	jobs  []memoJob
	cores []memoCore
	delta []coreDelta
}

// memoRun is one memoized Run: where its jobs end in syncMemo.jobs,
// and what it added to the reservation counters.
type memoRun struct {
	end                 int32
	accesses, conflicts int64
}

// memoJob is one job of a memoized Run: where its cores end in
// syncMemo.cores, and its NotBefore.
type memoJob struct {
	end       int32
	notBefore int64
}

// memoCore is one core of a memoized job and the index of its delta.
type memoCore struct{ core, delta int32 }

// coreDelta is what a Run adds to one core's clock and Stats.
type coreDelta struct {
	time  int64
	stats Stats
}

// errSkipped is the refusal of timed work after a replayed slot.
var errSkipped = errors.New("engine: a replayed slot skipped its bank bookings; Reset the machine before simulating again")

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
// docs/ARCHITECTURE.md, "Steady-state symbol replay"). RunSynced closes
// an open slot, which then commits nothing, and refuses after a
// replayed slot until Reset.
func (m *Machine) RunSynced(key SyncKey, jobs ...Job) error {
	if err := m.validateJobs(jobs); err != nil {
		return err
	}
	if err := m.timed(); err != nil {
		return err
	}
	if !m.replayable(key, jobs) {
		m.run(jobs)
		m.ClusterBarrier()
		return nil
	}
	if e := m.memoFind(key, false); e != nil {
		if err := m.replayRun(e, 0, jobs); err != nil {
			return err
		}
	} else {
		// The recording goes to scratch first, so a phase that panics
		// leaves every entry as it was.
		s := m.scratch()
		s.snapICache(m.icache)
		m.recordRun(s, jobs)
		m.commit(key, false)
	}
	m.ClusterBarrier()
	return nil
}

// replayable reports whether a stage may use the memo: its timing must
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

// BeginSlot opens a slot: every Run until EndSlot is one memo unit
// under key. On a machine that has run nothing since NewMachine or
// Reset, with no Tracer and DebugRaces off when BeginSlot is called
// (attach either before it), the first slot under key
// simulates and records, and a repeat replays: each Run executes its
// jobs untimed, in the caller's host order, and then restores what the
// recorded Run left in its cores' clocks and Stats and in the
// reservation counters, so every reading between Runs is exact. The
// replay skips the bank bookings the slot leaves live, so after it the
// machine refuses Run, RunSynced and RunWarm until Reset. A Run that
// deviates from the recording — one beyond it, or with other job
// counts, core sets or NotBefore — returns an error; a slot replays
// whole or refuses, and never gives a wrong cycle. On any other machine,
// or under the zero key, the slot is simulated and memoizes nothing
// (see docs/ARCHITECTURE.md, "Steady-state symbol replay").
func (m *Machine) BeginSlot(key SyncKey) {
	m.slot = nil
	if key == (SyncKey{}) || m.ran || m.Tracer != nil || m.DebugRaces {
		return
	}
	m.slotRun = 0
	if e := m.memoFind(key, true); e != nil {
		m.slot = e
		return
	}
	m.slot = m.scratch()
	m.slot.key = key
}

// EndSlot closes the open slot, if any. A complete recording is
// committed as one memo entry, recording over the least recently used
// one past the cap; an incomplete one (complete false) is dropped, as
// is the recording of a slot that is never ended, Reset, or interrupted
// by RunSynced, RunWarm or ClusterBarrier. A complete replay must have
// issued every recorded Run.
func (m *Machine) EndSlot(complete bool) error {
	s := m.slot
	m.slot = nil
	switch {
	case s == nil || !complete:
		return nil
	case s == &m.memoScratch:
		m.commit(s.key, true)
		return nil
	case m.slotRun != len(s.runs):
		return fmt.Errorf("engine: replayed slot ended after %d of its %d recorded Runs", m.slotRun, len(s.runs))
	}
	return nil
}

// runSlot is Run inside an open slot: it records the jobs as the slot's
// next Run, or replays that Run.
func (m *Machine) runSlot(jobs []Job) error {
	s := m.slot
	// Closed while the Run executes: a Run that panics or deviates ends
	// the slot, and a recording then commits nothing.
	m.slot = nil
	if s == &m.memoScratch {
		m.recordRun(s, jobs)
	} else {
		if err := m.replayRun(s, m.slotRun, jobs); err != nil {
			return err
		}
		m.slotRun++
	}
	m.slot = s
	return nil
}

// timed prepares the machine for timed work outside Run: it closes an
// open slot, which then commits nothing, and refuses after a replayed
// slot.
func (m *Machine) timed() error {
	m.slot = nil
	if m.skipped {
		return errSkipped
	}
	return nil
}

// memoFind returns key's entry of the given kind — for a stage, the one
// recorded from the current I$ state — or nil.
func (m *Machine) memoFind(key SyncKey, slot bool) *syncMemo {
	m.memoClock++
	for i := range m.memos {
		if e := &m.memos[i]; e.key == key && e.slot == slot && (slot || e.matches(m.icache)) {
			e.used = m.memoClock
			return e
		}
	}
	return nil
}

// scratch empties memoScratch and the index of its deltas for a new
// recording and returns it.
func (m *Machine) scratch() *syncMemo {
	s := &m.memoScratch
	s.icOf, s.icOrder, s.icLines, s.icEnd = s.icOf[:0], s.icOrder[:0], s.icLines[:0], s.icEnd[:0]
	s.runs, s.jobs, s.cores, s.delta = s.runs[:0], s.jobs[:0], s.cores[:0], s.delta[:0]
	if m.deltaIndex == nil {
		m.deltaIndex = make(map[coreDelta]int32)
	}
	clear(m.deltaIndex)
	return s
}

// snapCores saves every core's clock and Stats at a Run's entry.
func (m *Machine) snapCores() {
	if m.memoTime == nil {
		m.memoTime = make([]int64, len(m.coreTime))
		m.memoStats = make([]Stats, len(m.coreStats))
	}
	copy(m.memoTime, m.coreTime)
	copy(m.memoStats, m.coreStats)
}

// recordRun simulates jobs and appends them to s as its next Run: their
// core sets and NotBefore, what they added to each of their cores'
// clock and Stats, and what they added to the reservation counters.
func (m *Machine) recordRun(s *syncMemo, jobs []Job) {
	m.snapCores()
	res := m.Mem.Res
	acc, confl := res.Accesses(), res.ConflictCycles()
	m.run(jobs)
	for ji := range jobs {
		for _, c := range jobs[ji].Cores {
			d := coreDelta{time: m.coreTime[c] - m.memoTime[c], stats: m.coreStats[c].Sub(m.memoStats[c])}
			i, ok := m.deltaIndex[d]
			if !ok {
				i = int32(len(s.delta))
				m.deltaIndex[d] = i
				s.delta = append(s.delta, d)
			}
			s.cores = append(s.cores, memoCore{core: int32(c), delta: i})
		}
		s.jobs = append(s.jobs, memoJob{end: int32(len(s.cores)), notBefore: jobs[ji].NotBefore})
	}
	s.runs = append(s.runs, memoRun{end: int32(len(s.jobs)), accesses: res.Accesses() - acc, conflicts: res.ConflictCycles() - confl})
}

// replayRun runs jobs untimed as Run r of e and restores what that Run
// left in the clocks and Stats of its cores and in the reservation
// counters. It returns an error, running nothing, when jobs are not the
// recorded Run's.
func (m *Machine) replayRun(e *syncMemo, r int, jobs []Job) error {
	i, ok := e.sameRun(r, jobs)
	if !ok {
		return fmt.Errorf("engine: Run %d of a replayed unit does not match its recording", r)
	}
	if e.slot {
		// From a slot's first replayed Run on, the reservation table
		// lacks the slot's bookings.
		m.skipped = true
	}
	m.snapCores()
	// A phase that panics must not leave the machine untimed: callers
	// such as the calibration grid recover and reuse the machine.
	m.procScratch.untimed = true
	defer func() { m.procScratch.untimed = false }()
	m.run(jobs)
	for ji := range jobs {
		for _, c := range jobs[ji].Cores {
			d := &e.delta[e.cores[i].delta]
			m.coreTime[c] = m.memoTime[c] + d.time
			st := m.memoStats[c]
			st.Add(d.stats)
			m.coreStats[c] = st
			i++
		}
	}
	m.Mem.Res.AddReplayed(e.runs[r].accesses, e.runs[r].conflicts)
	m.replayed++
	return nil
}

// sameRun reports whether jobs have Run r's job count, core sets and
// NotBefore, and returns the index of the Run's first core in e.cores.
func (e *syncMemo) sameRun(r int, jobs []Job) (int, bool) {
	if r >= len(e.runs) {
		return 0, false
	}
	lo := 0
	if r > 0 {
		lo = int(e.runs[r-1].end)
	}
	if int(e.runs[r].end)-lo != len(jobs) {
		return 0, false
	}
	first := 0
	if lo > 0 {
		first = int(e.jobs[lo-1].end)
	}
	at := first
	for ji := range jobs {
		j, cores := &e.jobs[lo+ji], jobs[ji].Cores
		if j.notBefore != jobs[ji].NotBefore || int(j.end)-at != len(cores) {
			return 0, false
		}
		for k, c := range cores {
			if int(e.cores[at+k].core) != c {
				return 0, false
			}
		}
		at = int(j.end)
	}
	return first, true
}

// commit copies the recording in memoScratch into an entry under key.
func (m *Machine) commit(key SyncKey, slot bool) {
	e := m.memoVictim()
	e.store(&m.memoScratch)
	e.key, e.slot, e.used = key, slot, m.memoClock
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
	e.runs = refill(e.runs, s.runs)
	e.jobs = refill(e.jobs, s.jobs)
	e.cores = refill(e.cores, s.cores)
	e.delta = refill(e.delta, s.delta)
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
