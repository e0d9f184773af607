package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/fixed"
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
		out[t] = tileICache{lru: slices.Clone(ic.lru), used: ic.used}
	}
	return out
}

func sameICache(a, b []tileICache) bool {
	for t := range a {
		if !slices.Equal(a[t].lru, b[t].lru) || a[t].used != b[t].used {
			return false
		}
	}
	return true
}

// sameMachine fails unless a and b agree on every core's clock and
// Stats, every tile's I$ contents and LRU order, the reservation
// counters and every memory word.
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

// fuzzOp is one step of a replay program: procOps[kind] on the words
// at base, base+stride, ..., n of them, with operands picked by arg.
type fuzzOp struct {
	kind, n, stride, arg int
	base                 arch.Addr
}

// at returns the address of the op's i-th word.
func (op *fuzzOp) at(i int) arch.Addr { return op.base + arch.Addr(i*op.stride) }

// fuzzLane is one lane's registers while it runs a replay program: the
// values and accumulators its ops produced, which later ops read.
type fuzzLane struct {
	p    *Proc
	vals []W
	accs []A
}

// w returns a produced value, or an immediate before the first.
func (l *fuzzLane) w(i int) W {
	if len(l.vals) == 0 {
		return l.p.Imm(fixed.C15(0x00010002))
	}
	return l.vals[i%len(l.vals)]
}

// a returns a produced accumulator, or zero before the first.
func (l *fuzzLane) a(i int) A {
	if len(l.accs) == 0 {
		return A{}
	}
	return l.accs[i%len(l.accs)]
}

// ws returns n produced values starting at the i-th.
func (l *fuzzLane) ws(i, n int) []W {
	src := make([]W, n)
	for k := range src {
		src[k] = l.w(i + k)
	}
	return src
}

// putW stores w at the op's first word and keeps it as an operand.
func (l *fuzzLane) putW(op *fuzzOp, w W) {
	l.p.Store(op.base, w)
	l.vals = append(l.vals, w)
}

// putA stores a exactly, the raw 32-bit halves of both components
// moved through Imm into the op's first four words, and keeps it as an
// operand.
func (l *fuzzLane) putA(op *fuzzOp, a A) {
	var ws [4]W
	for i, v := range [4]uint64{uint64(a.Acc.Re), uint64(a.Acc.Re) >> 32, uint64(a.Acc.Im), uint64(a.Acc.Im) >> 32} {
		ws[i] = l.p.Imm(fixed.C15(uint32(v)))
	}
	l.p.StoreVec(op.base, 1, ws[:])
	l.accs = append(l.accs, a)
}

// spanWords is how many words from an op's base the span ops, and the
// stored accumulators, touch.
const spanWords = 4

// procOps lists every exported Proc data op as replay programs run it:
// each result is stored to memory, so comparing memory words compares
// what the op computed. TestProcOpsCoverProc keeps the list complete.
var procOps = []struct {
	name string
	run  func(l *fuzzLane, op *fuzzOp)
}{
	{"Tick", func(l *fuzzLane, op *fuzzOp) { l.p.Tick(op.n) }},
	{"Load", func(l *fuzzLane, op *fuzzOp) { l.vals = append(l.vals, l.p.Load(op.base)) }},
	{"Load2", func(l *fuzzLane, op *fuzzOp) {
		a, b := l.p.Load2(op.base, op.at(op.n-1))
		l.vals = append(l.vals, a, b)
	}},
	{"LoadVec", func(l *fuzzLane, op *fuzzOp) {
		dst := make([]W, op.n)
		l.p.LoadVec(op.base, op.stride, dst)
		l.vals = append(l.vals, dst...)
	}},
	{"LoadSpan", func(l *fuzzLane, op *fuzzOp) {
		dst := make([]W, min(op.n, spanWords))
		l.p.LoadSpan(op.base, dst)
		l.vals = append(l.vals, dst...)
	}},
	{"LoadGather", func(l *fuzzLane, op *fuzzOp) {
		addrs, dst := make([]arch.Addr, op.n), make([]W, op.n)
		for i := range addrs {
			addrs[i] = op.at(op.n - 1 - i)
		}
		l.p.LoadGather(addrs, dst)
		l.vals = append(l.vals, dst...)
	}},
	{"Store", func(l *fuzzLane, op *fuzzOp) { l.p.Store(op.base, l.w(op.arg)) }},
	{"StoreVec", func(l *fuzzLane, op *fuzzOp) { l.p.StoreVec(op.base, op.stride, l.ws(op.arg, op.n)) }},
	{"StoreScatter", func(l *fuzzLane, op *fuzzOp) {
		addrs := make([]arch.Addr, op.n)
		for i := range addrs {
			addrs[i] = op.at(op.n - 1 - i)
		}
		l.p.StoreScatter(addrs, l.ws(op.arg, op.n))
	}},
	{"AmoAdd", func(l *fuzzLane, op *fuzzOp) { l.vals = append(l.vals, l.p.AmoAdd(op.base)) }},
	{"Imm", func(l *fuzzLane, op *fuzzOp) { l.putW(op, l.p.Imm(fixed.C15(uint32(op.arg)*0x01230457))) }},
	{"CAdd", func(l *fuzzLane, op *fuzzOp) { l.putW(op, l.p.CAdd(l.w(op.arg), l.w(op.arg+1))) }},
	{"CSub", func(l *fuzzLane, op *fuzzOp) { l.putW(op, l.p.CSub(l.w(op.arg), l.w(op.arg+1))) }},
	{"CHalf", func(l *fuzzLane, op *fuzzOp) { l.putW(op, l.p.CHalf(l.w(op.arg))) }},
	{"CMul", func(l *fuzzLane, op *fuzzOp) { l.putW(op, l.p.CMul(l.w(op.arg), l.w(op.arg+1))) }},
	{"Mac", func(l *fuzzLane, op *fuzzOp) { l.putA(op, l.p.Mac(l.a(op.arg), l.w(op.arg), l.w(op.arg+1))) }},
	{"MacConj", func(l *fuzzLane, op *fuzzOp) {
		l.putA(op, l.p.MacConj(l.a(op.arg), l.w(op.arg), l.w(op.arg+1)))
	}},
	{"MacAbs2", func(l *fuzzLane, op *fuzzOp) { l.putA(op, l.p.MacAbs2(l.a(op.arg), l.w(op.arg))) }},
	{"CAddW", func(l *fuzzLane, op *fuzzOp) { l.putA(op, l.p.CAddW(l.w(op.arg), l.w(op.arg+1))) }},
	{"CSubW", func(l *fuzzLane, op *fuzzOp) { l.putA(op, l.p.CSubW(l.w(op.arg), l.w(op.arg+1))) }},
	{"AccAdd", func(l *fuzzLane, op *fuzzOp) { l.putA(op, l.p.AccAdd(l.a(op.arg), l.a(op.arg+1))) }},
	{"AccSub", func(l *fuzzLane, op *fuzzOp) { l.putA(op, l.p.AccSub(l.a(op.arg), l.a(op.arg+1))) }},
	{"AccMulNegJ", func(l *fuzzLane, op *fuzzOp) { l.putA(op, l.p.AccMulNegJ(l.a(op.arg))) }},
	{"Widen", func(l *fuzzLane, op *fuzzOp) { l.putA(op, l.p.Widen(l.w(op.arg))) }},
	{"MulTw", func(l *fuzzLane, op *fuzzOp) {
		l.putW(op, l.p.MulTw(l.a(op.arg), l.w(op.arg), uint(op.arg%16)))
	}},
	{"Narrow", func(l *fuzzLane, op *fuzzOp) { l.putW(op, l.p.Narrow(l.a(op.arg), uint(op.arg%16))) }},
	{"SqrtRe", func(l *fuzzLane, op *fuzzOp) { l.putW(op, l.p.SqrtRe(l.a(op.arg))) }},
	{"DivByRe", func(l *fuzzLane, op *fuzzOp) { l.putW(op, l.p.DivByRe(l.a(op.arg), l.w(op.arg))) }},
	{"CDiv", func(l *fuzzLane, op *fuzzOp) { l.putW(op, l.p.CDiv(l.w(op.arg), l.w(op.arg+1))) }},
}

// fuzzWork runs each lane's replay program as a phase body.
func fuzzWork(progs [][]fuzzOp) func(p *Proc) {
	return func(p *Proc) {
		l := &fuzzLane{p: p}
		for i := range progs[p.Lane] {
			op := &progs[p.Lane][i]
			procOps[op.kind].run(l, op)
		}
	}
}

// placeOp moves op's base so that every word it may touch — its n
// strided words and the spanWords from its base — lies in [0, limit).
func placeOp(op *fuzzOp, a, limit int) {
	span := (op.n - 1) * op.stride
	a = min(a, limit-1-max(span, spanWords-1))
	a = max(a, -min(span, 0))
	op.base = arch.Addr(a)
}

// TestProcOpsCoverProc fails on an exported Proc method that the replay
// programs never run and that has no data work to check.
func TestProcOpsCoverProc(t *testing.T) {
	exempt := map[string]bool{"Now": true, "Config": true, "String": true, "Drain": true}
	typ := reflect.TypeFor[*Proc]()
	listed := map[string]bool{}
	for _, op := range procOps {
		if _, ok := typ.MethodByName(op.name); !ok || listed[op.name] {
			t.Errorf("procOps lists %q twice or names no Proc method", op.name)
		}
		listed[op.name] = true
	}
	for i := range typ.NumMethod() {
		if name := typ.Method(i).Name; !listed[name] && !exempt[name] {
			t.Errorf("Proc.%s is neither in procOps nor exempt", name)
		}
	}
}

// TestRunSyncedReplaysEveryOp replays a unit whose lanes run every op of
// procOps, each at its own words, on the three geometries: the replayed
// unit must leave memory, like everything else, as simulating it does.
func TestRunSyncedReplaysEveryOp(t *testing.T) {
	for _, cfg := range syncCfgs() {
		limit := (cfg.BankWords - 1) * cfg.NumBanks()
		progs := make([][]fuzzOp, cfg.NumCores())
		for lane := range progs {
			for k := range procOps {
				op := fuzzOp{kind: k, n: 1 + (lane+k)%8, stride: (lane+k)%9 - 4, arg: lane + 3*k}
				placeOp(&op, (lane*len(procOps)+k)*spanWords, limit)
				progs[lane] = append(progs[lane], op)
			}
		}
		cores := make([]int, cfg.NumCores())
		for i := range cores {
			cores[i] = i
		}
		unit := []Job{{Name: "ops", Cores: cores, Phases: []Phase{
			{Name: "a", Kernel: "ops/a", Lines: 8, Work: fuzzWork(progs)},
			{Name: "b", Kernel: "ops/b", Lines: 8, FetchEvery: 3, Work: fuzzWork(progs)},
		}}}
		if a, _ := checkSynced(t, cfg.Name, cfg, nil, unit, syncUnit(cfg)); a.replayed != 1 {
			t.Fatalf("%s: the unit did not replay", cfg.Name)
		}
	}
}

// decodeUnit reads one unit: 1-3 jobs on disjoint cores, each with 1-3
// phases. A phase has a kernel name (or the default), a footprint (0 is
// the default), a fetch distance and one program of 1-6 procOps steps
// that every lane runs, shifted by a per-phase lane step. shift moves
// every program's base, as if the unit were planned at a later arena
// position.
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
			ops := make([]fuzzOp, 1+r.next(6))
			for i := range ops {
				ops[i] = fuzzOp{kind: r.next(len(procOps)), n: 1 + r.next(8), stride: r.next(9) - 4, arg: r.next(64), base: arch.Addr(r.next(limit))}
			}
			step := r.next(16)
			progs := make([][]fuzzOp, len(cores))
			for l := range progs {
				progs[l] = slices.Clone(ops)
				for i := range progs[l] {
					op := &progs[l][i]
					placeOp(op, (int(op.base)+shift+l*step)%limit, limit)
				}
			}
			ph := Phase{Name: fmt.Sprintf("p%d", pi), Lines: r.next(41), FetchEvery: r.next(12), Work: fuzzWork(progs)}
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

// slotRuns is a three-Run slot on the prop-2g geometry's eight cores,
// shaped like pipeline beats: partitions f, b and d run syncUnit's
// phases, and d waits on NotBefore in the second Run.
func slotRuns(cfg *arch.Config) [][]Job {
	phases := syncUnit(cfg)[0].Phases
	part := func(name string, notBefore int64, cores ...int) Job {
		return Job{Name: name, Cores: cores, Phases: phases, NotBefore: notBefore}
	}
	return [][]Job{
		{part("f", 0, 0, 1, 2, 3), part("b", 0, 4, 5)},
		{part("f", 0, 0, 1, 2, 3), part("b", 0, 4, 5), part("d", 400, 6, 7)},
		{part("d", 0, 6, 7)},
	}
}

// playSlot runs runs on m between BeginSlot(unitKey) and EndSlot.
func playSlot(t *testing.T, m *Machine, runs [][]Job) {
	t.Helper()
	m.BeginSlot(unitKey)
	for _, jobs := range runs {
		if err := m.Run(jobs...); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.EndSlot(true); err != nil {
		t.Fatal(err)
	}
}

// TestSlotReplayDeviates: a replaying caller that leaves the recording
// gets an error, never a wrong cycle. Each row replays from a Reset
// machine whose memo holds slotRuns and deviates once: a Run beyond the
// recording, a Run with a job missing, with a job on other cores or
// with another NotBefore, or an EndSlot before the last Run. After the
// error a timed Run refuses until Reset, unless the deviation came
// before any Run replayed.
func TestSlotReplayDeviates(t *testing.T) {
	cfg := propCfg("prop-2g", 2, 2, 2, 2)
	runs := slotRuns(cfg)
	moved := slices.Clone(runs[1])
	moved[2].Cores = []int{7, 6}
	later := slices.Clone(runs[1])
	later[2].NotBefore++
	rows := []struct {
		name     string
		replay   [][]Job // the Runs issued; the last one deviates unless end
		end      bool    // EndSlot(true) after the Runs deviates
		refusing bool    // a Run replayed before the deviation
	}{
		{name: "beyond the recording", replay: append(slices.Clone(runs), runs[2]), refusing: true},
		{name: "job missing", replay: [][]Job{runs[0], runs[1][:2]}, refusing: true},
		{name: "other cores", replay: [][]Job{runs[0], moved}, refusing: true},
		{name: "other NotBefore", replay: [][]Job{runs[0], later}, refusing: true},
		{name: "first Run", replay: [][]Job{runs[1]}},
		{name: "ended early", replay: runs[:2], end: true, refusing: true},
	}
	m := NewMachine(cfg)
	playSlot(t, m, runs)
	for _, row := range rows {
		m.Reset()
		m.BeginSlot(unitKey)
		var err error
		for i, jobs := range row.replay {
			if err = m.Run(jobs...); err != nil {
				if i != len(row.replay)-1 || row.end {
					t.Fatalf("%s: Run %d: %v", row.name, i, err)
				}
			}
		}
		if row.end {
			err = m.EndSlot(true)
		}
		if err == nil {
			t.Fatalf("%s: the deviation returned no error", row.name)
		}
		if err := m.Run(runs[0]...); (err != nil) != row.refusing {
			t.Fatalf("%s: a timed Run after the deviation returned %v, want refusal %v", row.name, err, row.refusing)
		}
	}
	if m.MemoEntries() != 1 {
		t.Fatalf("%d memo entries, want the one recording", m.MemoEntries())
	}
}

// TestSlotPanicCommitsNothing: a Run that panics closes its slot. A
// recording then commits nothing, so the next slot records again; a
// replay leaves the machine refusing timed work until Reset.
func TestSlotPanicCommitsNothing(t *testing.T) {
	cfg := propCfg("prop-2g", 2, 2, 2, 2)
	runs := slotRuns(cfg)
	boom := slices.Clone(runs[1])
	boom[0].Phases = []Phase{{Name: "boom", Work: func(*Proc) { panic("boom") }}}
	m := NewMachine(cfg)
	panics := func() {
		m.Reset()
		m.BeginSlot(unitKey)
		func() {
			defer func() { _ = recover() }()
			if err := m.Run(runs[0]...); err != nil {
				t.Fatal(err)
			}
			_ = m.Run(boom...)
			t.Fatal("the phase did not panic")
		}()
		if err := m.EndSlot(true); err != nil {
			t.Fatal(err)
		}
	}
	panics()
	if m.MemoEntries() != 0 {
		t.Fatalf("the slot that panicked committed %d memo entries", m.MemoEntries())
	}
	for _, replayed := range []int{0, len(runs)} {
		m.Reset()
		playSlot(t, m, runs)
		if m.replayed != replayed {
			t.Fatalf("%d Runs replayed, want %d", m.replayed, replayed)
		}
	}
	panics()
	if err := m.Run(runs[0]...); err == nil {
		t.Fatal("a timed Run after a replayed slot panicked ran")
	}
}

// TestSlotReplayAllocsNothing: once a slot is recorded, replaying it on
// the Reset machine allocates nothing.
func TestSlotReplayAllocsNothing(t *testing.T) {
	cfg := propCfg("prop-2g", 2, 2, 2, 2)
	runs := slotRuns(cfg)
	m := NewMachine(cfg)
	slot := func() {
		m.Reset()
		playSlot(t, m, runs)
	}
	slot() // records
	if avg := testing.AllocsPerRun(20, slot); avg != 0 {
		t.Fatalf("slot Reset+replay allocates %.1f objects/op, want 0", avg)
	}
	if m.replayed != len(runs) {
		t.Fatalf("%d of the slot's %d Runs replayed", m.replayed, len(runs))
	}
}

// holdJobs returns jobs with the NotBefore handshakes of a slot program
// set from m's clocks: a job whose hold h has h[0] > 0 waits until the
// cores of job h[0]-1 (mod the job count) of the previous Run are done,
// or every core before the first Run, plus h[1] cycles.
func holdJobs(m *Machine, prev, jobs []Job, holds [][2]int) []Job {
	out := slices.Clone(jobs)
	for ji, h := range holds {
		if h[0] == 0 {
			continue
		}
		var cores []int
		if len(prev) > 0 {
			cores = prev[(h[0]-1)%len(prev)].Cores
		}
		out[ji].NotBefore = m.MaxTime(cores) + int64(h[1])
	}
	return out
}

// FuzzSlotReplay checks a replayed slot against simulation on slot
// programs decoded from the fuzz bytes: a geometry, then 1-4 Runs, each
// a decodeUnit of jobs on disjoint cores, whose jobs may wait on a
// NotBefore handshake (holdJobs), so the cores leave every Run at
// unequal clocks, and each of which may be a sequential stage: a
// RunSynced under a stage key of its own, whose closing barrier runs
// inside the slot. Machine a runs the program three times, its twin b
// plainly, each stage as Run + ClusterBarrier: first outside a slot,
// so a's stages record stage entries; then, after a Reset, as one slot
// that records while those stages replay from the stage memo; then,
// after another Reset, as the slot replaying every Run. After every
// Run of every pass, every core's clock and Stats, every tile's I$, the
// reservation counters and every memory word must agree (sameMachine).
// After the replay, a refuses a timed Run.
func FuzzSlotReplay(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 3, 1, 2, 5, 1, 0, 200, 7, 3, 1, 9, 12, 2, 40, 4, 1, 2, 3, 1, 9, 2, 30, 1, 2, 8, 3, 17, 1, 5})
	f.Add([]byte{2, 3, 0, 2, 3, 2, 1, 1, 3, 40, 5, 2, 7, 1, 1, 0, 64, 12, 1, 3, 3, 2, 2, 6, 90, 0, 4, 11, 2, 63, 1, 0, 5, 2, 2, 1, 9, 33, 3, 1})
	// Two programs whose first Runs are stages: a stage, then a Run
	// with one handshake; two stages, then a Run with four.
	f.Add([]byte{108, 1, 100, 252, 234, 0, 70, 224, 56, 0, 114, 102, 57, 164, 1, 0, 1, 26, 2, 1, 1, 2, 62, 27, 85, 1, 226, 1, 2, 233, 135, 0, 2, 142, 0, 142, 68, 1, 35, 98, 18, 163, 63, 1, 157, 0, 2, 0, 0, 0, 1, 222, 2, 1, 2, 125, 0, 46, 0, 8, 183, 2})
	f.Add([]byte{202, 98, 215, 0, 91, 51, 26, 213, 116, 73, 1, 2, 245, 1, 2, 0, 1, 2, 1, 1, 1, 1, 143, 2, 96, 245, 145, 236, 142, 221, 0, 1, 2, 0, 32, 186, 7, 0, 146, 192, 0, 1, 123, 2, 189, 38, 163, 95, 1, 163, 0, 43, 197, 1, 2, 1, 45, 145, 198, 173, 43, 104, 241, 2, 2, 2, 3, 94, 0, 56, 2, 2, 0, 0, 0, 2, 187, 239, 161, 1, 1, 90, 1, 0, 66, 220, 1, 162, 2, 2, 2, 2, 0, 38, 2, 133, 116, 2, 135, 0, 74, 36, 1, 151, 1, 2, 2, 2, 17, 194, 231, 164, 2, 126, 32, 186, 144, 2, 158, 0, 116, 2, 30, 0, 2, 172, 1, 235, 30, 0, 207, 0, 0, 179, 1, 1, 2, 15, 1, 105, 245, 9, 1, 2, 189, 244, 104, 32, 255, 156, 1, 0, 0, 61, 2, 94, 1, 98, 0, 33, 203, 12, 119, 23, 234, 12, 222, 0, 2, 2, 0, 1, 2, 2, 0, 0, 238, 1, 86, 1, 1, 108})
	cfgs := syncCfgs()
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{b: data}
		cfg := cfgs[r.next(len(cfgs))]
		runs := make([][]Job, 1+r.next(4))
		holds := make([][][2]int, len(runs))
		stage := make([]bool, len(runs))
		for i := range runs {
			runs[i] = decodeUnit(r, cfg, fmt.Sprintf("r%d.", i), 0)
			for range runs[i] {
				holds[i] = append(holds[i], [2]int{r.next(4), r.next(64)})
			}
			stage[i] = r.next(2) == 1
		}
		a, b := newPatterned(cfg), newPatterned(cfg)
		for pass := range 3 {
			if pass > 0 {
				a.Reset()
				b.Reset()
				a.BeginSlot(unitKey)
			}
			var prev []Job
			for i := range runs {
				jobs := holdJobs(a, prev, runs[i], holds[i])
				run := a.Run
				if stage[i] {
					run = func(jobs ...Job) error { return a.RunSynced(SyncKey{Unit: 10 + i}, jobs...) }
				}
				if err := run(jobs...); err != nil {
					t.Fatal(err)
				}
				if err := b.Run(jobs...); err != nil {
					t.Fatal(err)
				}
				if stage[i] {
					b.ClusterBarrier()
				}
				sameMachine(t, fmt.Sprintf("%s pass %d, Run %d", cfg.Name, pass, i), a, b)
				prev = jobs
			}
			if err := a.EndSlot(true); err != nil {
				t.Fatal(err)
			}
		}
		if a.replayed != len(runs) {
			t.Fatalf("%d of the slot's %d Runs replayed", a.replayed, len(runs))
		}
		if err := a.Run(runs[0]...); err == nil {
			t.Fatal("a timed Run after the replayed slot ran")
		}
	})
}
