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
// coordinate takes 14: one slot entry, and 13 stage entries (one per
// stage and entry I$ state: four FFT and four beamforming entries, two
// channel estimations, the noise combine and two detections). A
// repeated slot replays from its slot entry alone; the stage entries
// serve a cold slot's repeated stages (symbols 4 and later) and a
// coordinate re-planned with another NSymb, which gets another slot key
// but the same stage keys. A pipelined coordinate takes a single slot
// entry. A sequential slot entry holds 43–148 KB on MemPool (64 or 256
// SC, 6 or 14 symbols, 19–43 Runs), so a pooled machine keeps four
// sequential coordinates whole; past the cap the least recently used
// entry is recorded over.
const syncMemoCap = 64

// syncMemo is the measured effect of one memoized unit: a RunSynced
// stage from one entry I$ state, which is one Run, or a whole slot from
// the Reset state, which is every Run between BeginSlot and EndSlot.
// The closing barrier of a stage is not part of either; it always runs
// live.
type syncMemo struct {
	key  SyncKey
	slot bool   // a BeginSlot unit, not a RunSynced stage
	used uint64 // the memo clock at the entry's last use

	// A stage's entry I$ state, one copy per distinct tile state: tile t
	// is in state icOf[t], whose resident kernels are
	// icLRU[icEnd[s-1]:icEnd[s]]. A slot's entry state is the Reset
	// state, so it keeps none.
	icOf  []int32
	icLRU []icLine
	icEnd []int

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

// memoRec is a recording in progress, later copied into an entry: the
// unit so far and an index that finds each of its distinct deltas in
// constant time (a linear search made recording a 1024-core pipelined
// slot ~11% slower).
type memoRec struct {
	syncMemo
	index map[coreDelta]int32
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
// jobs run untimed (each Proc op does only its data work, and each
// phase updates each tile's I$ once) and the memoized per-core clock,
// Stats and reservation-counter deltas are added. A key keeps one entry
// per entry I$ state, up to syncMemoCap entries per machine. Units with
// a NotBefore job, or on a machine with a Tracer or DebugRaces, are
// always simulated (see docs/ARCHITECTURE.md, "Steady-state symbol
// replay").
//
// Inside an open slot (BeginSlot) the stage is the slot's next Run and
// its closing barrier runs live, leaving the slot open: a replayed slot
// replays the stage as that Run, with no stage-memo lookup, and errors
// when the jobs deviate from it; a recording slot runs the stage
// through the stage memo as above and appends what it did to the
// recording. RunSynced refuses after a replayed slot until Reset.
func (m *Machine) RunSynced(key SyncKey, jobs ...Job) error {
	if err := m.validateJobs(jobs); err != nil {
		return err
	}
	var err error
	switch {
	case m.slot != nil:
		err = m.runSlot(key, jobs)
	case m.skipped:
		return errSkipped
	default:
		err = m.runStage(key, jobs, nil)
	}
	if err != nil {
		return err
	}
	m.barrier()
	return nil
}

// runStage runs a stage's jobs through the stage memo: it replays key's
// entry for the current I$ state, or simulates the jobs and, when the
// stage may replay later, records them as a new entry. The zero key
// just simulates. A recording slot passed as slot gets the Run
// appended.
func (m *Machine) runStage(key SyncKey, jobs []Job, slot *memoRec) error {
	var e *syncMemo
	record := m.replayable(key, jobs)
	if record {
		e = m.memoFind(key, false)
		record = e == nil
	}
	if slot == nil && !record {
		if e != nil {
			return m.replayRun(e, 0, jobs)
		}
		m.run(jobs)
		return nil
	}
	acc, confl := m.snapCores()
	switch {
	case e != nil:
		if err := m.replayRun(e, 0, jobs); err != nil {
			return err
		}
	case record:
		// The recording goes to a scratch first, so a phase that panics
		// leaves every entry as it was.
		s := m.stageRec.begin()
		s.snapICache(m.icache)
		m.run(jobs)
		m.addRun(s, jobs, acc, confl)
		m.commit(s, key, false)
	default:
		m.run(jobs)
	}
	if slot != nil {
		m.addRun(slot, jobs, acc, confl)
	}
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

// BeginSlot opens a slot: every Run, and every RunSynced stage, until
// EndSlot is one memo unit under key. On a machine that has run nothing
// since NewMachine or Reset, with no Tracer and DebugRaces off when
// BeginSlot is called (attach either before it), the first slot under
// key simulates and records, and a repeat replays after this one
// lookup: each Run executes its jobs untimed, in the caller's host
// order, and then adds what the recorded Run added to its cores' clocks
// and Stats and to the reservation counters, so every reading between
// Runs is exact. A RunSynced stage's closing barrier is not part of the
// unit: it runs live, exact because it depends only on the clocks. The
// replay skips the bank bookings the slot leaves live, so after it the
// machine refuses Run, RunSynced and RunWarm until Reset. A Run that
// deviates from the recording — one beyond it, or with other job
// counts, core sets or NotBefore — returns an error; a slot replays
// whole or refuses, and never gives a wrong cycle. On any other
// machine, or under the zero key, the slot is simulated and memoizes
// nothing (see docs/ARCHITECTURE.md, "Slot replay").
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
	m.slot = &m.slotRec.begin().syncMemo
	m.slot.key = key
}

// EndSlot closes the open slot, if any. A complete recording is
// committed as one memo entry, recording over the least recently used
// one past the cap; an incomplete one (complete false) is dropped, as
// is the recording of a slot that is never ended, Reset, or interrupted
// by RunWarm or the exported ClusterBarrier. A complete replay must
// have issued every recorded Run.
func (m *Machine) EndSlot(complete bool) error {
	s := m.slot
	m.slot = nil
	switch {
	case s == nil || !complete:
		return nil
	case s == &m.slotRec.syncMemo:
		m.commit(&m.slotRec, s.key, true)
		return nil
	case m.slotRun != len(s.runs):
		return fmt.Errorf("engine: replayed slot ended after %d of its %d recorded Runs", m.slotRun, len(s.runs))
	}
	return nil
}

// runSlot runs jobs inside an open slot as its next Run: a recording
// slot runs them through the stage memo under key (the zero key of a
// plain Run simulates them) and appends them, and a replaying slot
// replays that Run.
func (m *Machine) runSlot(key SyncKey, jobs []Job) error {
	s := m.slot
	// Closed while the Run executes: a Run that panics or deviates ends
	// the slot, and a recording then commits nothing.
	m.slot = nil
	if s == &m.slotRec.syncMemo {
		if err := m.runStage(key, jobs, &m.slotRec); err != nil {
			return err
		}
	} else {
		if err := m.replayRun(s, m.slotRun, jobs); err != nil {
			return err
		}
		m.slotRun++
	}
	m.slot = s
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

// begin empties r and its delta index for a new recording and returns
// it.
func (r *memoRec) begin() *memoRec {
	r.icOf, r.icLRU, r.icEnd = r.icOf[:0], r.icLRU[:0], r.icEnd[:0]
	r.runs, r.jobs, r.cores, r.delta = r.runs[:0], r.jobs[:0], r.cores[:0], r.delta[:0]
	if r.index == nil {
		r.index = make(map[coreDelta]int32)
	}
	clear(r.index)
	return r
}

// snapCores saves every core's clock and Stats at a recorded Run's
// entry and returns the reservation counters.
func (m *Machine) snapCores() (accesses, conflicts int64) {
	if m.memoTime == nil {
		m.memoTime = make([]int64, len(m.coreTime))
		m.memoStats = make([]Stats, len(m.coreStats))
	}
	copy(m.memoTime, m.coreTime)
	copy(m.memoStats, m.coreStats)
	return m.Mem.Res.Accesses(), m.Mem.Res.ConflictCycles()
}

// addRun appends the jobs that ran since snapCores to r as its next
// Run: their core sets and NotBefore, what they added to each of their
// cores' clock and Stats, and what they added to the reservation
// counters, which read acc and confl at snapCores.
func (m *Machine) addRun(r *memoRec, jobs []Job, acc, confl int64) {
	for ji := range jobs {
		for _, c := range jobs[ji].Cores {
			d := coreDelta{time: m.coreTime[c] - m.memoTime[c]}
			d.stats.addDiff(&m.coreStats[c], &m.memoStats[c])
			i, ok := r.index[d]
			if !ok {
				i = int32(len(r.delta))
				r.index[d] = i
				r.delta = append(r.delta, d)
			}
			r.cores = append(r.cores, memoCore{core: int32(c), delta: i})
		}
		r.jobs = append(r.jobs, memoJob{end: int32(len(r.cores)), notBefore: jobs[ji].NotBefore})
	}
	res := m.Mem.Res
	r.runs = append(r.runs, memoRun{end: int32(len(r.jobs)), accesses: res.Accesses() - acc, conflicts: res.ConflictCycles() - confl})
}

// replayRun runs jobs untimed as Run r of e and adds what that Run
// added to the clocks and Stats of its cores and to the reservation
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
	m.runUntimed(jobs)
	for ji := range jobs {
		for _, c := range jobs[ji].Cores {
			d := &e.delta[e.cores[i].delta]
			m.coreTime[c] += d.time
			m.coreStats[c].Add(d.stats)
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

// commit copies the recording r into an entry under key.
func (m *Machine) commit(r *memoRec, key SyncKey, slot bool) {
	e := m.memoVictim()
	e.store(&r.syncMemo)
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
			e.icLRU = append(e.icLRU, ic.lru...)
			e.icEnd = append(e.icEnd, len(e.icLRU))
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

// holds reports whether ic's resident kernels are icLRU[lo:hi].
func (e *syncMemo) holds(ic *tileICache, lo, hi int) bool {
	return slices.Equal(ic.lru, e.icLRU[lo:hi])
}

// store copies the recording in s into e, each slice sized to fit once:
// an evicted entry's storage is reused when it is large enough.
func (e *syncMemo) store(s *syncMemo) {
	e.icOf = refill(e.icOf, s.icOf)
	e.icLRU = refill(e.icLRU, s.icLRU)
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
