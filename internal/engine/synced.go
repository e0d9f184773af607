package engine

import "slices"

// syncMemo is the measured effect of one simulated RunSynced unit: the
// instruction-cache state it started from and what its jobs added to
// every core's clock and Stats and to the reservation counters. The
// closing barrier is not part of it; it always runs for real.
type syncMemo struct {
	key any
	ok  bool // the deltas belong to the entry state below

	// Entry I$ state, every tile in order: icOrder[icEnd[t-1]:icEnd[t]]
	// is tile t's LRU order and icLines the matching footprints.
	icOrder []string
	icLines []int
	icEnd   []int

	dTime                 []int64
	dStats                []Stats
	dAccesses, dConflicts int64
}

// RunSynced runs jobs and then the closing ClusterBarrier, one stage of
// a sequential-layout chain. key names the jobs' instruction stream,
// typically the kernel plan that built them; it must be comparable, and
// it must not name other jobs until the machine is Reset. A nil key
// memoizes nothing.
//
// The result is Run followed by ClusterBarrier, cycle for cycle, but a
// unit that repeats is not simulated again. When a key starts again
// from the state it was last simulated from — every core at one cycle
// and every tile's I$ contents, footprints and LRU order unchanged —
// its phases run untimed (data reads and writes, I$ and phase-counter
// updates, no bank booking) and the memoized per-core clock, Stats and
// reservation-counter deltas are applied. Units with a NotBefore job,
// or on a machine with a Tracer, DebugRaces or RotatePriority, are
// always simulated (see docs/ARCHITECTURE.md, "Steady-state symbol
// replay").
func (m *Machine) RunSynced(key any, jobs ...Job) error {
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
	e := m.memoFor(key)
	if e.matches(m.icache) {
		m.replay(e, jobs, t0)
	} else {
		m.record(e, jobs, t0)
	}
	m.ClusterBarrier()
	return nil
}

// replayable reports whether a unit may use the memo: its timing must
// be a function of the key and the I$ state alone.
func (m *Machine) replayable(key any, jobs []Job) bool {
	if key == nil || m.Tracer != nil || m.DebugRaces || m.RotatePriority {
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

// record simulates the unit's jobs from cycle t0 and memoizes their
// entry I$ state and deltas in e.
func (m *Machine) record(e *syncMemo, jobs []Job, t0 int64) {
	e.ok = false
	e.icOrder, e.icLines, e.icEnd = e.icOrder[:0], e.icLines[:0], e.icEnd[:0]
	for t := range m.icache {
		ic := &m.icache[t]
		for _, k := range ic.order {
			e.icOrder = append(e.icOrder, k)
			e.icLines = append(e.icLines, ic.resident[k])
		}
		e.icEnd = append(e.icEnd, len(e.icOrder))
	}
	res := m.Mem.Res
	acc, confl := res.Accesses(), res.ConflictCycles()
	m.run(jobs)
	e.dTime, e.dStats = e.dTime[:0], e.dStats[:0]
	for c, t := range m.coreTime {
		e.dTime = append(e.dTime, t-t0)
		e.dStats = append(e.dStats, m.coreStats[c].Sub(m.memoStats[c]))
	}
	e.dAccesses, e.dConflicts = res.Accesses()-acc, res.ConflictCycles()-confl
	e.ok = true
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
		m.coreTime[c] = t0 + e.dTime[c]
		st := m.memoStats[c]
		st.Add(e.dStats[c])
		m.coreStats[c] = st
	}
	m.Mem.Res.AddReplayed(e.dAccesses, e.dConflicts)
	m.replayed++
}

// matches reports whether every tile's I$ is in e's entry state.
func (e *syncMemo) matches(icache []tileICache) bool {
	if !e.ok {
		return false
	}
	lo := 0
	for t := range icache {
		ic, hi := &icache[t], e.icEnd[t]
		if !slices.Equal(ic.order, e.icOrder[lo:hi]) {
			return false
		}
		for i, k := range ic.order {
			if ic.resident[k] != e.icLines[lo+i] {
				return false
			}
		}
		lo = hi
	}
	return true
}

// memoFor returns key's memo entry, claiming recycled storage for a new
// key.
func (m *Machine) memoFor(key any) *syncMemo {
	for i := range m.memos {
		if m.memos[i].key == key {
			return &m.memos[i]
		}
	}
	if n := len(m.memos); n < cap(m.memos) {
		m.memos = m.memos[:n+1] // an entry Reset dropped
	} else {
		m.memos = append(m.memos, syncMemo{})
	}
	e := &m.memos[len(m.memos)-1]
	e.key = key
	return e
}

// dropMemos forgets every memo entry but keeps its storage.
func (m *Machine) dropMemos() {
	for i := range m.memos {
		e := &m.memos[i]
		e.key, e.ok = nil, false
		clear(e.icOrder)
	}
	m.memos = m.memos[:0]
}
