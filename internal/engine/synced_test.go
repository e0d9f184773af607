package engine

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
)

// syncCfgs are the three geometries of the replay property: the
// warm-pass geometries of TestRunWarmMatchesColdPass.
func syncCfgs() []*arch.Config {
	return []*arch.Config{
		propCfg("prop-2g", 2, 2, 2, 2), // 8 cores over 4 tiles
		propCfg("prop-3g", 3, 2, 3, 3), // 18 cores, 54 banks
		propCfg("prop-1g", 1, 4, 4, 1), // 16 cores over 4 tiles, 16 banks
	}
}

// newPatterned builds a machine whose arena below the barrier rows holds
// a fixed word pattern, so loaded values and stored results differ.
func newPatterned(cfg *arch.Config) *Machine {
	m := NewMachine(cfg)
	for a := 0; a < (cfg.BankWords-1)*cfg.NumBanks(); a++ {
		m.Mem.Write(arch.Addr(a), uint32(a)*2654435761+1)
	}
	return m
}

// copyICache returns a deep copy of every tile's I$ state.
func copyICache(m *Machine) []tileICache {
	out := make([]tileICache, len(m.icache))
	for t, ic := range m.icache {
		out[t] = tileICache{resident: maps.Clone(ic.resident), order: slices.Clone(ic.order), used: ic.used}
	}
	return out
}

func sameICache(a, b []tileICache) bool {
	for t := range a {
		if !slices.Equal(a[t].order, b[t].order) || !maps.Equal(a[t].resident, b[t].resident) || a[t].used != b[t].used {
			return false
		}
	}
	return true
}

// sameMachine fails unless a and b agree on every core's clock and
// Stats, every tile's I$ contents and LRU order, the phase counter, the
// reservation counters and every memory word.
func sameMachine(t *testing.T, where string, a, b *Machine) {
	t.Helper()
	for c := range a.coreTime {
		if a.coreTime[c] != b.coreTime[c] {
			t.Fatalf("%s: core %d at cycle %d, want %d", where, c, a.coreTime[c], b.coreTime[c])
		}
		if a.coreStats[c] != b.coreStats[c] {
			t.Fatalf("%s: core %d stats\n got %+v\nwant %+v", where, c, a.coreStats[c], b.coreStats[c])
		}
	}
	if !sameICache(a.icache, b.icache) {
		t.Fatalf("%s: I$ state diverges", where)
	}
	if a.phaseCounter != b.phaseCounter {
		t.Fatalf("%s: phase counter %d, want %d", where, a.phaseCounter, b.phaseCounter)
	}
	ra, rb := a.Mem.Res, b.Mem.Res
	if ra.Accesses() != rb.Accesses() || ra.ConflictCycles() != rb.ConflictCycles() {
		t.Fatalf("%s: reservation counters %d/%d, want %d/%d",
			where, ra.Accesses(), ra.ConflictCycles(), rb.Accesses(), rb.ConflictCycles())
	}
	for w := 0; w < a.Cfg.BankWords*a.Cfg.NumBanks(); w++ {
		if va, vb := a.Mem.Read(arch.Addr(w)), b.Mem.Read(arch.Addr(w)); va != vb {
			t.Fatalf("%s: word %d holds %#x, want %#x", where, w, va, vb)
		}
	}
}

// Memo keys of the units checkSynced runs.
var (
	unitKey = SyncKey{Unit: 1}
	nextKey = SyncKey{Unit: 2}
)

// runBoth runs jobs on a through RunSynced under key and on its twin b
// through Run + ClusterBarrier.
func runBoth(t *testing.T, a, b *Machine, key SyncKey, jobs []Job) {
	t.Helper()
	if err := a.RunSynced(key, jobs...); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(jobs...); err != nil {
		t.Fatal(err)
	}
	b.ClusterBarrier()
}

// checkSynced runs prelude, then a warm pass of unit, each closed by a
// ClusterBarrier, on two patterned machines. Machine a then runs unit
// twice through RunSynced and next once; its twin b runs the same units
// through Run + ClusterBarrier. Every piece of machine state must agree
// at the end, so units simulated after a replay see no trace of the
// skipped bookings. The second unit must replay exactly when it starts
// from the I$ state the first started from. checkSynced returns both
// machines.
func checkSynced(t *testing.T, where string, cfg *arch.Config, prelude, unit, next []Job) (a, b *Machine) {
	t.Helper()
	a, b = newPatterned(cfg), newPatterned(cfg)
	for _, m := range []*Machine{a, b} {
		for _, jobs := range [][]Job{prelude, unit} {
			if err := m.Run(jobs...); err != nil {
				t.Fatal(err)
			}
			m.ClusterBarrier()
		}
	}
	var entry [2][]tileICache
	for pass := range entry {
		entry[pass] = copyICache(b)
		runBoth(t, a, b, unitKey, unit)
	}
	runBoth(t, a, b, nextKey, next)
	sameMachine(t, where, a, b)
	want := 0
	if sameICache(entry[0], entry[1]) {
		want = 1
	}
	if a.replayed != want {
		t.Fatalf("%s: %d units replayed, want %d", where, a.replayed, want)
	}
	return a, b
}

// fitICache gives the unit's kernels names of their own and caps their
// footprints so all of them fit one tile cache together. A warm pass
// then loads each of them without evicting another, so the next pass
// leaves every I$ unchanged and the pass after it replays.
func fitICache(cfg *arch.Config, jobs []Job) {
	lines := map[string]int{}
	for ji := range jobs {
		for pi := range jobs[ji].Phases {
			ph := &jobs[ji].Phases[pi]
			if ph.Kernel != "" {
				ph.Kernel = "unit/" + ph.Kernel
			}
			k, n := icacheKey(&jobs[ji], ph)
			lines[k] = max(lines[k], n)
		}
	}
	total := 0
	for _, n := range lines {
		total += n
	}
	if total <= cfg.ICache.LinesPerTile {
		return
	}
	for ji := range jobs {
		for pi := range jobs[ji].Phases {
			jobs[ji].Phases[pi].Lines = max(1, cfg.ICache.LinesPerTile/len(lines))
		}
	}
}

// TestRunSyncedReplayMatchesSimulation is the replay property over
// random multi-job, multi-phase units on three geometries: a replayed
// unit leaves the machine exactly as Run + ClusterBarrier does, and so
// does every unit simulated after it. Each unit fits the tile caches,
// so every case replays.
func TestRunSyncedReplayMatchesSimulation(t *testing.T) {
	for _, cfg := range syncCfgs() {
		rng := rand.New(rand.NewSource(13))
		for cas := 0; cas < 16; cas++ {
			where := fmt.Sprintf("%s case %d", cfg.Name, cas)
			prelude := genWarmJobs(rng, cfg, "pre")
			unit := genWarmJobs(rng, cfg, "job")
			fitICache(cfg, unit)
			next := genWarmJobs(rng, cfg, "nxt")
			if a, _ := checkSynced(t, where, cfg, prelude, unit, next); a.replayed != 1 {
				t.Fatalf("%s: the repeated unit did not replay", where)
			}
		}
	}
}

// syncUnit is a race-free two-phase unit on every core: each lane loads
// and stores its own words.
func syncUnit(cfg *arch.Config) []Job {
	work := func(p *Proc) {
		base := arch.Addr(p.Lane * 16)
		var buf [8]W
		p.LoadSpan(base, buf[:])
		p.Tick(3)
		p.StoreVec(base+8, 1, buf[:])
	}
	cores := make([]int, cfg.NumCores())
	for i := range cores {
		cores[i] = i
	}
	return []Job{{Name: "u", Cores: cores, Phases: []Phase{
		{Name: "a", Kernel: "u/a", Lines: 8, Work: work},
		{Name: "b", Kernel: "u/b", Lines: 8, Work: work},
	}}}
}

// TestRunSyncedSimulates: a repeated unit replays only from its
// memoized entry state on an untraced, unchecked, fixed-priority
// machine. Each row changes one condition before the second pass; that
// pass must then simulate, and still match Run + ClusterBarrier.
func TestRunSyncedSimulates(t *testing.T) {
	cfg := propCfg("prop-2g", 2, 2, 2, 2)
	tick := func(p *Proc) { p.Tick(5) }
	rows := []struct {
		name    string
		prep    func(m *Machine) // applied to both machines before the second pass
		hold    bool             // the second pass's job waits on NotBefore
		replays bool
	}{
		{name: "unchanged", replays: true},
		{name: "changed I$", prep: func(m *Machine) {
			evict := syncUnit(cfg)
			evict[0].Phases = []Phase{{Name: "e", Kernel: "evict", Lines: cfg.ICache.LinesPerTile, Work: tick}}
			if err := m.Run(evict...); err != nil {
				t.Fatal(err)
			}
			m.ClusterBarrier()
		}},
		{name: "cores at different cycles", prep: func(m *Machine) {
			if err := m.Run(Job{Name: "skew", Cores: []int{3}, Phases: []Phase{{Name: "s", Kernel: "u/a", Work: tick}}}); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "NotBefore", hold: true},
		{name: "Tracer", prep: func(m *Machine) { m.Tracer = &Tracer{} }},
		{name: "DebugRaces", prep: func(m *Machine) { m.DebugRaces = true }},
		{name: "RotatePriority", prep: func(m *Machine) { m.RotatePriority = true }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			unit := syncUnit(cfg)
			a, b := newPatterned(cfg), newPatterned(cfg)
			for _, m := range []*Machine{a, b} {
				if err := m.Run(unit...); err != nil { // warm the I$
					t.Fatal(err)
				}
				m.ClusterBarrier()
			}
			second := unit
			if row.hold {
				second = slices.Clone(unit)
				second[0].NotBefore = a.Cycles() + 7
			}
			for pass, jobs := range [][]Job{unit, second} {
				if pass == 1 && row.prep != nil {
					row.prep(a)
					row.prep(b)
				}
				runBoth(t, a, b, unitKey, jobs)
			}
			sameMachine(t, row.name, a, b)
			if got := a.replayed == 1; got != row.replays {
				t.Fatalf("replayed %d units, want replay %v", a.replayed, row.replays)
			}
		})
	}
}

// TestRunSyncedAllocsNothing: a unit records its cold-I$ and warm
// entries once; replaying them allocates nothing, and neither does
// replaying them after a Reset, which keeps the entries. Past the cap,
// recording over the least recently used entry reuses its storage and
// allocates nothing either.
func TestRunSyncedAllocsNothing(t *testing.T) {
	m := NewMachine(arch.MemPool())
	unit := syncUnit(m.Cfg)
	passes := func() {
		for range 3 { // cold I$, then warm twice
			if err := m.RunSynced(unitKey, unit...); err != nil {
				t.Fatal(err)
			}
		}
	}
	passes()
	if m.replayed != 1 {
		t.Fatalf("%d of 3 passes replayed, want 1 (the first loads the I$, the second records from the warm state)", m.replayed)
	}
	cycle := func() {
		m.Reset()
		passes()
	}
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("RunSynced Reset+replay allocates %.1f objects/op, want 0", avg)
	}
	if m.replayed != 3 {
		t.Fatalf("after Reset %d of 3 passes replayed, want 3", m.replayed)
	}

	churn := func() {
		for u := range syncMemoCap + 1 {
			if err := m.RunSynced(SyncKey{Unit: 3 + u}, unit...); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn() // fill the memo to its cap
	m.replayed = 0
	if avg := testing.AllocsPerRun(5, churn); avg != 0 {
		t.Fatalf("RunSynced recording over evicted entries allocates %.1f objects/op, want 0", avg)
	}
	if m.replayed != 0 || len(m.memos) != syncMemoCap {
		t.Fatalf("%d units cycling through %d entries: %d replayed, want 0 (LRU order)", syncMemoCap+1, len(m.memos), m.replayed)
	}
}

// fuzzReader decodes a replay program from fuzz bytes; an exhausted
// input reads as zeros.
type fuzzReader struct{ b []byte }

// next returns a value in [0, n), reading one byte per 8 bits of n.
func (r *fuzzReader) next(n int) int {
	v := 0
	for span := 1; span < n; span <<= 8 {
		if len(r.b) > 0 {
			v = v<<8 | int(r.b[0])
			r.b = r.b[1:]
		}
	}
	return v % n
}

// decodeUnit reads one unit: 1-3 jobs on disjoint cores, each with 1-3
// phases. A phase has a kernel name (or the default), a footprint (0 is
// the default), a fetch distance and one program of strided loads and
// stores that every lane runs, shifted by a per-phase lane step. shift
// moves every program's base, as if the unit were planned at a later
// arena position.
func decodeUnit(r *fuzzReader, cfg *arch.Config, prefix string, shift int) []Job {
	limit := (cfg.BankWords - 1) * cfg.NumBanks() // clear of the barrier rows
	n := cfg.NumCores()
	free := make([]int, n)
	for i, start := 0, r.next(n); i < n; i++ {
		free[i] = (start + i) % n
	}
	jobs := make([]Job, 1+r.next(3))
	for ji := range jobs {
		k := 1 + r.next(len(free)-(len(jobs)-ji-1))
		cores := free[:k]
		free = free[k:]
		phases := make([]Phase, 1+r.next(3))
		for pi := range phases {
			ops := make([]bulkOp, 1+r.next(4))
			for i := range ops {
				ops[i] = bulkOp{kind: opLoadVec + r.next(2), n: 1 + r.next(8), stride: r.next(9) - 4, tick: r.next(4), base: arch.Addr(r.next(limit))}
			}
			step := r.next(16)
			progs := make([][]bulkOp, len(cores))
			for l := range progs {
				progs[l] = slices.Clone(ops)
				for i := range progs[l] {
					op := &progs[l][i]
					span := (op.n - 1) * op.stride
					a := (int(op.base) + shift + l*step) % limit
					a = min(a, limit-1-max(span, 0))
					a = max(a, -min(span, 0))
					op.base = arch.Addr(a)
				}
			}
			ph := Phase{Name: fmt.Sprintf("p%d", pi), Lines: r.next(41), FetchEvery: r.next(12), Work: progWork(progs, true)}
			if kernel := r.next(5); kernel > 0 {
				ph.Kernel = fmt.Sprintf("k%d", kernel)
			}
			phases[pi] = ph
		}
		jobs[ji] = Job{Name: fmt.Sprintf("%s%d", prefix, ji), Cores: cores, Phases: phases}
	}
	return jobs
}

// FuzzRunSyncedReplay checks RunSynced against Run + ClusterBarrier on
// programs decoded from the fuzz bytes (geometry, then a prelude, the
// repeated unit, a later unit and an address shift; see decodeUnit), as
// TestRunSyncedReplayMatchesSimulation does on random ones. Both
// machines are then Reset, which keeps a's memo, and run the unit from
// the cold I$ twice, the unit re-planned at the shifted address under
// the key of its new arena position, and the unit again.
func FuzzRunSyncedReplay(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 3, 2, 5, 1, 0, 200, 7, 3, 1, 9, 12, 4, 0, 9, 2, 30, 1, 2, 8})
	f.Add([]byte{2, 0, 1, 3, 2, 1, 1, 3, 40, 5, 2, 7, 1, 1, 0, 64, 12, 1, 3, 3, 2, 2, 6, 90, 0, 4, 11})
	cfgs := syncCfgs()
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{b: data}
		cfg := cfgs[r.next(len(cfgs))]
		prelude := decodeUnit(r, cfg, "pre", 0)
		at := *r // the unit's bytes, decoded again at the shifted address
		unit := decodeUnit(r, cfg, "job", 0)
		next := decodeUnit(r, cfg, "nxt", 0)
		shift := r.next(cfg.BankWords * cfg.NumBanks())
		moved := decodeUnit(&at, cfg, "job", shift)
		movedKey := unitKey
		movedKey.Arena.Seq = arch.Addr(shift)

		a, b := checkSynced(t, cfg.Name, cfg, prelude, unit, next)
		a.Reset()
		b.Reset()
		runBoth(t, a, b, unitKey, unit)
		runBoth(t, a, b, unitKey, unit)
		runBoth(t, a, b, movedKey, moved)
		runBoth(t, a, b, unitKey, unit)
		sameMachine(t, cfg.Name+" after Reset", a, b)
	})
}
