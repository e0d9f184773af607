package engine

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/fixed"
)

// runOn executes fn as a single phase on the given cores and returns the
// machine for inspection.
func runOn(t *testing.T, cfg *arch.Config, cores []int, fn func(p *Proc)) *Machine {
	t.Helper()
	m := NewMachine(cfg)
	job := Job{Name: "t", Cores: cores, Phases: []Phase{{Name: "p", Work: fn}}}
	if err := m.Run(job); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTickAdvances(t *testing.T) {
	m := runOn(t, arch.MemPool(), []int{0}, func(p *Proc) {
		p.Tick(5)
	})
	s := m.CoreStats(0)
	if s.Instrs != 5 || s.IAlu != 5 {
		t.Errorf("stats = %+v, want 5 instrs", s)
	}
	// Single-core job: no barrier, so time advances exactly by the work
	// plus the icache refill.
	wantTime := int64(5) + int64(DefaultKernelLines)*m.Cfg.ICache.RefillLatency
	if m.CoreTime(0) != wantTime {
		t.Errorf("core time = %d, want %d", m.CoreTime(0), wantTime)
	}
	if s.ICacheStalls != int64(DefaultKernelLines)*m.Cfg.ICache.RefillLatency {
		t.Errorf("icache stalls = %d", s.ICacheStalls)
	}
}

func TestLoadLatencies(t *testing.T) {
	cfg := arch.MemPool()
	// Core 0 is in tile 0 (group 0). Pick one address per level.
	local := cfg.TileLocalAddr(0, 0, 0)
	group := cfg.TileLocalAddr(1, 0, 0)
	remote := cfg.TileLocalAddr(cfg.TilesPerGroup, 0, 0)
	type obs struct{ local, group, remote int64 }
	var got obs
	runOn(t, cfg, []int{0}, func(p *Proc) {
		start := p.Now()
		w := p.Load(local)
		got.local = w.At - start
		start = p.Now()
		w = p.Load(group)
		got.group = w.At - start
		start = p.Now()
		w = p.Load(remote)
		got.remote = w.At - start
	})
	if got.local != 1 || got.group != 3 || got.remote != 5 {
		t.Errorf("load latencies = %+v, want 1/3/5", got)
	}
}

func TestLoadUseStallIsLSU(t *testing.T) {
	cfg := arch.MemPool()
	remote := cfg.TileLocalAddr(cfg.TilesPerGroup, 0, 0)
	m := runOn(t, cfg, []int{0}, func(p *Proc) {
		w := p.Load(remote) // data at issue+5
		p.CAdd(w, w)        // issues at +1, needs data at +5: 4 stall cycles
	})
	if s := m.CoreStats(0); s.LsuStalls != 4 {
		t.Errorf("lsu stalls = %d, want 4 (load-use wait)", s.LsuStalls)
	}
}

func TestMulUseStallIsRAW(t *testing.T) {
	m := runOn(t, arch.MemPool(), []int{0}, func(p *Proc) {
		a := p.Imm(fixed.Pack(100, 0))
		b := p.Imm(fixed.Pack(200, 0))
		prod := p.CMul(a, b) // result at issue+MulLatency
		p.CAdd(prod, prod)   // consumes immediately: MulLatency-1 RAW stalls
	})
	want := arch.MemPool().MulLatency - 1
	if s := m.CoreStats(0); s.RawStalls != want {
		t.Errorf("raw stalls = %d, want %d (mul-use wait)", s.RawStalls, want)
	}
}

func TestIndependentLoadsHideLatency(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	base, err := m.Mem.AllocSeq(64)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		// 8 independent loads back-to-back: issue 8 cycles, the LSU hides
		// the individual latencies.
		ws := make([]W, 8)
		for i := range ws {
			ws[i] = p.Load(base + arch.Addr(i))
		}
		for i := range ws {
			_ = p.CAdd(ws[i], ws[i])
		}
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	s := m.CoreStats(0)
	// All loads are non-local (sequential data spreads over the cluster),
	// but issuing 8 loads takes 8 cycles, by which time the first results
	// have arrived: RAW stalls must be far below 8 loads x 5 cycles.
	if s.RawStalls > 8 {
		t.Errorf("raw stalls = %d, want small (latency hidden by LSU)", s.RawStalls)
	}
}

func TestLSUDepthLimit(t *testing.T) {
	cfg := arch.MemPool()
	cfg.LSUDepth = 2
	remote := cfg.TileLocalAddr(cfg.TilesPerGroup, 0, 0)
	m := runOn(t, cfg, []int{0}, func(p *Proc) {
		// Three loads to remote banks with only 2 LSU slots: the third
		// must wait for the first to retire.
		p.Load(remote)
		p.Load(remote + 1)
		p.Load(remote + 2)
	})
	if s := m.CoreStats(0); s.LsuStalls == 0 {
		t.Error("expected LSU stalls with depth 2 and 3 remote loads")
	}
}

func TestBankConflictSerializes(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	// Two cores in different tiles load the same bank at the same time.
	target := cfg.TileLocalAddr(2, 0, 0)
	var at [2]int64
	err := m.Run(Job{Name: "t", Cores: []int{0, 4}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		w := p.Load(target)
		at[p.Lane] = w.At - p.Now() + 1 // latency including issue
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	if at[0] == at[1] {
		t.Errorf("conflicting accesses not serialized: latencies %v", at)
	}
	if m.Mem.Res.ConflictCycles() == 0 {
		t.Error("no conflict cycles recorded")
	}
}

func TestNoConflictOnDistinctBanks(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	err := m.Run(Job{Name: "t", Cores: []int{0, 4}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		// Each core loads from its own tile: distinct banks.
		tile := p.Config().TileOfCore(p.Core)
		p.Load(p.Config().TileLocalAddr(tile, 0, 0))
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Mem.Res.ConflictCycles() != 0 {
		t.Errorf("unexpected conflicts: %d cycles", m.Mem.Res.ConflictCycles())
	}
}

func TestBarrierAlignsCores(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	// One core per tile, so each pays its own I$ refill and the WFI skew
	// reflects only the imbalanced work.
	cores := []int{0, 4, 8, 12}
	err := m.Run(Job{Name: "t", Cores: cores, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		p.Tick((p.Lane + 1) * 10) // imbalanced work
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	t0 := m.CoreTime(0)
	for _, c := range cores {
		if m.CoreTime(c) != t0 {
			t.Errorf("core %d time %d != core 0 time %d after barrier", c, m.CoreTime(c), t0)
		}
	}
	// The fastest core (lane 0) waits for the slowest: at least 30 cycles
	// of WFI difference between them.
	w0 := m.CoreStats(cores[0]).WfiStalls
	w3 := m.CoreStats(cores[3]).WfiStalls
	if w0-w3 < 25 {
		t.Errorf("WFI stalls: fast core %d, slow core %d; want difference near 30", w0, w3)
	}
}

func TestSingleCoreJobSkipsBarrier(t *testing.T) {
	m := runOn(t, arch.MemPool(), []int{3}, func(p *Proc) { p.Tick(1) })
	if s := m.CoreStats(3); s.WfiStalls != 0 {
		t.Errorf("single-core job has WFI stalls: %d", s.WfiStalls)
	}
}

func TestStatsAccounting(t *testing.T) {
	// Every cycle in the window must be attributed: instrs + stalls ==
	// elapsed time per core (multi-core job with barrier).
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	base, err := m.Mem.AllocSeq(1024)
	if err != nil {
		t.Fatal(err)
	}
	cores := []int{0, 1, 2, 3, 4, 5, 6, 7}
	err = m.Run(Job{Name: "t", Cores: cores, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		acc := A{}
		for i := 0; i < 20; i++ {
			a := p.Load(base + arch.Addr(p.Lane*20+i))
			acc = p.Mac(acc, a, a)
		}
		p.Store(base+arch.Addr(512+p.Lane), p.Narrow(acc, 5))
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	end := m.CoreTime(0)
	for _, c := range cores {
		s := m.CoreStats(c)
		if s.Busy() != end {
			t.Errorf("core %d: attributed %d cycles, elapsed %d", c, s.Busy(), end)
		}
	}
}

func TestDivUnitNotPipelined(t *testing.T) {
	m := runOn(t, arch.MemPool(), []int{0}, func(p *Proc) {
		acc := p.Widen(p.Imm(fixed.Pack(1000, 0)))
		den := p.Imm(fixed.Pack(2000, 0))
		p.DivByRe(acc, den) // two divisions back to back
	})
	s := m.CoreStats(0)
	if s.Divs != 2 {
		t.Errorf("divs = %d, want 2", s.Divs)
	}
	// The second division waits for the initiation interval of the first.
	want := m.Cfg.DivSqrt.Init - 1
	if s.ExtStalls != want {
		t.Errorf("ext stalls = %d, want %d", s.ExtStalls, want)
	}
}

func TestSqrtValue(t *testing.T) {
	var got W
	runOn(t, arch.MemPool(), []int{0}, func(p *Proc) {
		// 0.25 in Q2.30 -> sqrt = 0.5.
		got = p.SqrtRe(A{Acc: fixed.Acc{Re: fixed.OneQ30 / 4}})
	})
	if f := fixed.Q15ToFloat(got.B.Re()); f < 0.499 || f > 0.501 {
		t.Errorf("sqrt(0.25) = %g, want 0.5", f)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	base, err := m.Mem.AllocSeq(16)
	if err != nil {
		t.Fatal(err)
	}
	want := fixed.Pack(123, -456)
	err = m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		p.Store(base, p.Imm(want))
		got := p.Load(base)
		if got.B != want {
			t.Errorf("loaded %v, want %v", got.B, want)
		}
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.C15(m.Mem.Read(base)) != want {
		t.Error("store did not reach memory")
	}
}

func TestICacheSharedWithinTile(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	// Cores 0 and 1 share tile 0: only the first pays the refill.
	err := m.Run(Job{Name: "t", Cores: []int{0, 1}, Phases: []Phase{{Name: "p", Work: func(p *Proc) { p.Tick(1) }}}})
	if err != nil {
		t.Fatal(err)
	}
	if m.CoreStats(0).ICacheStalls == 0 {
		t.Error("first core of tile paid no refill")
	}
	if m.CoreStats(1).ICacheStalls != 0 {
		t.Error("second core of tile paid a refill")
	}
}

func TestICacheLRUEviction(t *testing.T) {
	cfg := arch.MemPool()
	cfg.ICache.LinesPerTile = 16
	m := NewMachine(cfg)
	mk := func(name string) Phase {
		return Phase{Name: name, Kernel: name, Lines: 8, Work: func(p *Proc) { p.Tick(1) }}
	}
	// k1 and k2 fill the cache; k3 evicts k1; re-running k1 pays again.
	err := m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{mk("k1"), mk("k2"), mk("k3"), mk("k1")}})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * 8 * cfg.ICache.RefillLatency
	if got := m.CoreStats(0).ICacheStalls; got != want {
		t.Errorf("icache stalls = %d, want %d (4 refills)", got, want)
	}
	// Re-running k1 while still resident pays nothing.
	pre := m.CoreStats(0).ICacheStalls
	if err := m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{mk("k1")}}); err != nil {
		t.Fatal(err)
	}
	if got := m.CoreStats(0).ICacheStalls; got != pre {
		t.Errorf("resident kernel paid a refill: %d -> %d", pre, got)
	}
}

func TestRunValidation(t *testing.T) {
	m := NewMachine(arch.MemPool())
	noop := []Phase{{Name: "p", Work: func(p *Proc) {}}}
	if err := m.Run(Job{Name: "a", Cores: nil, Phases: noop}); err == nil {
		t.Error("empty core set accepted")
	}
	if err := m.Run(Job{Name: "a", Cores: []int{-1}, Phases: noop}); err == nil {
		t.Error("negative core accepted")
	}
	if err := m.Run(Job{Name: "a", Cores: []int{1 << 20}, Phases: noop}); err == nil {
		t.Error("out-of-range core accepted")
	}
	err := m.Run(
		Job{Name: "a", Cores: []int{0, 1}, Phases: noop},
		Job{Name: "b", Cores: []int{1, 2}, Phases: noop},
	)
	if err == nil || !strings.Contains(err.Error(), "claimed by both") {
		t.Errorf("overlapping jobs not rejected: %v", err)
	}
}

func TestRaceDetector(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	m.DebugRaces = true
	base, err := m.Mem.AllocSeq(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting writes in one phase not detected")
		}
	}()
	_ = m.Run(Job{Name: "t", Cores: []int{0, 1}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		p.Store(base, p.Imm(0)) // both cores write the same word
	}}}})
}

func TestRaceDetectorAllowsDisjoint(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	m.DebugRaces = true
	base, err := m.Mem.AllocSeq(8)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(Job{Name: "t", Cores: []int{0, 1}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {
		p.Store(base+arch.Addr(p.Lane), p.Imm(0))
	}}}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWakeCostSelection(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	all := make([]int, cfg.NumCores())
	for i := range all {
		all[i] = i
	}
	if got := m.wakeCost(all); got != cfg.Wake.Cluster {
		t.Errorf("cluster wake = %d, want %d", got, cfg.Wake.Cluster)
	}
	// One whole group (cores 0..63 on MemPool).
	grp := all[:cfg.CoresPerTile*cfg.TilesPerGroup]
	if got := m.wakeCost(grp); got != cfg.Wake.Group {
		t.Errorf("group wake = %d, want %d", got, cfg.Wake.Group)
	}
	// Two whole tiles in one group.
	tiles := all[:2*cfg.CoresPerTile]
	if got := m.wakeCost(tiles); got != cfg.Wake.Tile {
		t.Errorf("tile wake = %d, want %d (one group mask)", got, cfg.Wake.Tile)
	}
	// Ragged subset.
	ragged := []int{0, 5, 9}
	if got := m.wakeCost(ragged); got != 3*cfg.Wake.Core {
		t.Errorf("ragged wake = %d, want %d", got, 3*cfg.Wake.Core)
	}
}

func TestClusterBarrier(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	if err := m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{{Name: "p", Work: func(p *Proc) { p.Tick(100) }}}}); err != nil {
		t.Fatal(err)
	}
	m.ClusterBarrier()
	t0 := m.CoreTime(0)
	for c := 0; c < cfg.NumCores(); c++ {
		if m.CoreTime(c) != t0 {
			t.Fatalf("core %d not aligned after cluster barrier", c)
		}
	}
	// Idle cores carry the wait as WFI.
	if m.CoreStats(100).WfiStalls == 0 {
		t.Error("idle core has no WFI after cluster barrier")
	}
}

func TestReportIPCAndBreakdown(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	mark := m.Mark()
	if err := m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{{Name: "p", Work: func(p *Proc) { p.Tick(80) }}}}); err != nil {
		t.Fatal(err)
	}
	rep := m.ReportSince(mark, "tick", []int{0})
	if rep.Stats.Instrs != 80 {
		t.Errorf("instrs = %d", rep.Stats.Instrs)
	}
	if rep.Wall != m.CoreTime(0) {
		t.Errorf("wall = %d, want %d", rep.Wall, m.CoreTime(0))
	}
	// The instruction and stall fractions sum to 1.
	var sum float64
	for _, bucket := range []func(Stats) int64{
		func(s Stats) int64 { return s.Instrs },
		func(s Stats) int64 { return s.StallTotal() },
	} {
		sum += rep.Fraction(bucket)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("breakdown fractions sum to %g", sum)
	}
	if rep.IPC() <= 0 || rep.IPC() > 1 {
		t.Errorf("IPC = %g out of (0,1]", rep.IPC())
	}
}

func TestSpeedupAndUtilization(t *testing.T) {
	serial := Report{Wall: 1000, Cores: 1}
	parallel := Report{Wall: 10, Cores: 200}
	if got := Speedup(serial, parallel); got != 100 {
		t.Errorf("speedup = %g", got)
	}
	if got := Utilization(serial, parallel); got != 0.5 {
		t.Errorf("utilization = %g", got)
	}
}

func TestMultiplePhasesShareKernel(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	ph := func(name string) Phase {
		return Phase{Name: name, Kernel: "same", Work: func(p *Proc) { p.Tick(1) }}
	}
	if err := m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{ph("a"), ph("b"), ph("c")}}); err != nil {
		t.Fatal(err)
	}
	want := int64(DefaultKernelLines) * cfg.ICache.RefillLatency
	if got := m.CoreStats(0).ICacheStalls; got != want {
		t.Errorf("icache stalls = %d, want %d (single refill)", got, want)
	}
}

func TestNewMachinePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMachine accepted an invalid config")
		}
	}()
	bad := arch.MemPool()
	bad.Groups = 0
	NewMachine(bad)
}

// TestFetchTaxAccounting: the L0 fetch-miss tax must show up as icache
// stalls while keeping the cycle attribution complete.
func TestFetchTaxAccounting(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	// Four cores of one tile: miss cost 1 cycle every FetchEvery instrs.
	err := m.Run(Job{Name: "t", Cores: []int{0, 1, 2, 3}, Phases: []Phase{{
		Name: "p", FetchEvery: 4, Work: func(p *Proc) { p.Tick(100) },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	end := m.CoreTime(0)
	for c := 0; c < 4; c++ {
		s := m.CoreStats(c)
		// 100 work instructions plus 4 barrier-entry instructions at
		// 1 miss per 4: 26 tax cycles (plus the cold refill on core 0).
		tax := s.ICacheStalls
		if c == 0 {
			tax -= int64(DefaultKernelLines) * cfg.ICache.RefillLatency
		}
		if tax != 26 {
			t.Errorf("core %d: fetch tax %d, want 26", c, tax)
		}
		if s.Busy() != end {
			t.Errorf("core %d: attributed %d of %d cycles", c, s.Busy(), end)
		}
	}
}

// TestFetchTaxFreeForLoneCore: a single-core job pays no fetch tax
// (sequential prefetch hides L0 misses when the shared cache is idle).
func TestFetchTaxFreeForLoneCore(t *testing.T) {
	m := NewMachine(arch.MemPool())
	err := m.Run(Job{Name: "t", Cores: []int{0}, Phases: []Phase{{
		Name: "p", FetchEvery: 4, Work: func(p *Proc) { p.Tick(100) },
	}}})
	if err != nil {
		t.Fatal(err)
	}
	cold := int64(DefaultKernelLines) * m.Cfg.ICache.RefillLatency
	if got := m.CoreStats(0).ICacheStalls; got != cold {
		t.Errorf("lone core icache stalls = %d, want only the cold refill %d", got, cold)
	}
}

// TestFetchTaxScalesWithSharing: eight TeraPool cores sharing a tile pay
// more per miss than four MemPool cores.
func TestFetchTaxScalesWithSharing(t *testing.T) {
	tax := func(cfg *arch.Config, cores []int) int64 {
		m := NewMachine(cfg)
		if err := m.Run(Job{Name: "t", Cores: cores, Phases: []Phase{{
			Name: "p", FetchEvery: 4, Work: func(p *Proc) { p.Tick(400) },
		}}}); err != nil {
			t.Fatal(err)
		}
		return m.CoreStats(cores[1]).ICacheStalls // core 1: no cold refill
	}
	mp := tax(arch.MemPool(), []int{0, 1, 2, 3})
	tp := tax(arch.TeraPool(), []int{0, 1, 2, 3, 4, 5, 6, 7})
	if tp <= mp {
		t.Errorf("TeraPool tax %d not above MemPool %d", tp, mp)
	}
}

// TestBarrierSerializationGrowsWithCores: the central barrier counter
// serializes increments, so bigger jobs pay proportionally more.
func TestBarrierSerializationGrowsWithCores(t *testing.T) {
	wall := func(n int) int64 {
		m := NewMachine(arch.TeraPool())
		cores := make([]int, n)
		for i := range cores {
			cores[i] = i
		}
		mark := m.Mark()
		if err := m.Run(Job{Name: "t", Cores: cores, Phases: []Phase{{
			Name: "p", Work: func(p *Proc) { p.Tick(1) },
		}}}); err != nil {
			t.Fatal(err)
		}
		return m.ReportSince(mark, "b", cores).Wall
	}
	small, big := wall(16), wall(512)
	if big < small+400 {
		t.Errorf("barrier for 512 cores (%d cycles) not ~500 cycles above 16 cores (%d)", big, small)
	}
}

// TestDrainAttributesLSU: waiting out in-flight stores at phase end lands
// in the LSU bucket.
func TestDrainAttributesLSU(t *testing.T) {
	cfg := arch.MemPool()
	remote := cfg.TileLocalAddr(cfg.TilesPerGroup, 0, 0)
	m := runOn(t, cfg, []int{0}, func(p *Proc) {
		p.Store(remote, p.Imm(0)) // 5-cycle completion, then implicit Drain
	})
	if s := m.CoreStats(0); s.LsuStalls == 0 {
		t.Error("drain of an in-flight remote store charged no LSU stalls")
	}
}

// TestAluOpValues pins the value semantics of the small ALU helpers.
func TestAluOpValues(t *testing.T) {
	runOn(t, arch.MemPool(), []int{0}, func(p *Proc) {
		a := p.Imm(fixed.Pack(100, -200))
		if v := p.CHalf(a); v.B.Re() != 50 || v.B.Im() != -100 {
			t.Errorf("CHalf = (%d,%d)", v.B.Re(), v.B.Im())
		}
		b := p.Imm(fixed.Pack(10, 20))
		if v := p.CSub(a, b); v.B.Re() != 90 || v.B.Im() != -220 {
			t.Errorf("CSub = (%d,%d)", v.B.Re(), v.B.Im())
		}
		acc := p.MacConj(A{}, a, b)
		if acc.Acc.Re == 0 && acc.Acc.Im == 0 {
			t.Error("MacConj accumulated nothing")
		}
		s := p.AccAdd(acc, acc)
		if s.Acc.Re != 2*acc.Acc.Re {
			t.Error("AccAdd wrong")
		}
		if j := p.AccMulNegJ(acc); j.Acc.Re != acc.Acc.Im {
			t.Error("AccMulNegJ wrong")
		}
		if p.String() == "" {
			t.Error("empty Proc string")
		}
	})
}

// TestWIs16Bytes pins the register value's layout: B and Mem fit in the
// 8 bytes before At, so a W is 16 bytes and the W arrays kernels stage
// (FFT legs and twiddles, MMM windows, store scatters) copy no padding.
// The order B, At, Mem would pad it to 24.
func TestWIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(W{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(W{}) = %d, want 16", got)
	}
}

// TestCDivOpValue checks the engine's full complex division.
func TestCDivOpValue(t *testing.T) {
	runOn(t, arch.MemPool(), []int{0}, func(p *Proc) {
		a := p.Imm(fixed.FromComplex(complex(0.25, 0.1)))
		b := p.Imm(fixed.FromComplex(complex(0.5, 0)))
		v := p.CDiv(a, b)
		got := v.B.Complex()
		if realDiff := real(got) - 0.5; realDiff > 0.01 || realDiff < -0.01 {
			t.Errorf("CDiv real = %g", real(got))
		}
	})
}

// TestReportRendering exercises the string helpers.
func TestReportRendering(t *testing.T) {
	m := runOn(t, arch.MemPool(), []int{0}, func(p *Proc) { p.Tick(10) })
	rep := m.ReportSince(Mark{
		// zero-valued mark: measure from t=0
		time:  make([]int64, m.Cfg.NumCores()),
		stats: make([]Stats, m.Cfg.NumCores()),
	}, "r", []int{0})
	if s := rep.String(); !strings.Contains(s, "IPC") {
		t.Errorf("Report.String = %q", s)
	}
	if ts := m.TotalStats(); ts.Instrs == 0 {
		t.Error("TotalStats empty")
	}
}

// TestWakeCostTileUnionAcrossGroups: whole tiles spread over two groups
// cost one masked tile-CSR write per group.
func TestWakeCostTileUnionAcrossGroups(t *testing.T) {
	cfg := arch.MemPool()
	m := NewMachine(cfg)
	coresPerGroup := cfg.CoresPerTile * cfg.TilesPerGroup
	var cores []int
	for c := 0; c < cfg.CoresPerTile; c++ {
		cores = append(cores, c)               // tile 0, group 0
		cores = append(cores, coresPerGroup+c) // first tile of group 1
	}
	if got, want := m.wakeCost(cores), 2*cfg.Wake.Tile; got != want {
		t.Errorf("two-group tile wake = %d, want %d", got, want)
	}
}

// TestStatsSubAndAdd round-trips the counter arithmetic.
func TestStatsSubAndAdd(t *testing.T) {
	a := Stats{Instrs: 10, IAlu: 4, Loads: 3, Stores: 2, Mults: 1, Divs: 1,
		MACs: 1, RawStalls: 5, LsuStalls: 6, ExtStalls: 7, WfiStalls: 8, ICacheStalls: 9}
	var b Stats
	b.Add(a)
	if b != a {
		t.Error("Add mismatch")
	}
	var d Stats
	if d.addDiff(&b, &a); d != (Stats{}) {
		t.Errorf("addDiff residue %+v", d)
	}
	if a.StallTotal() != 35 || a.Busy() != 45 {
		t.Errorf("StallTotal %d Busy %d", a.StallTotal(), a.Busy())
	}
}

// TestRandomProgramAccounting drives the engine with randomized op
// sequences and asserts the core invariant: every cycle of every core is
// attributed to exactly one bucket, clocks are monotonic, and the run is
// deterministic.
func TestRandomProgramAccounting(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := arch.MemPool()
		m := NewMachine(cfg)
		base, err := m.Mem.AllocSeq(4096)
		if err != nil {
			t.Fatal(err)
		}
		cores := []int{0, 1, 2, 3, 17, 42, 200, 255}
		prog := func(p *Proc) {
			// Deterministic per-core op soup.
			s := seed*1000003 + uint64(p.Lane)*7919
			next := func() uint64 { s = s*6364136223846793005 + 1442695040888963407; return s >> 33 }
			var w W
			var acc A
			for i := 0; i < 200; i++ {
				addr := arch.Addr(uint64(p.Lane*512) + next()%512)
				switch next() % 8 {
				case 0:
					p.Tick(int(next()%4) + 1)
				case 1:
					w = p.Load(base + addr)
				case 2:
					p.Store(base+addr, w)
				case 3:
					w = p.CAdd(w, w)
				case 4:
					w = p.CMul(w, w)
				case 5:
					acc = p.Mac(acc, w, w)
				case 6:
					w = p.Narrow(acc, 4)
				case 7:
					w = p.SqrtRe(acc)
				}
			}
		}
		run := func() ([]int64, []Stats) {
			mm := NewMachine(cfg)
			b2, err := mm.Mem.AllocSeq(4096)
			if err != nil {
				t.Fatal(err)
			}
			_ = b2
			if err := mm.Run(Job{Name: "fuzz", Cores: cores, Phases: []Phase{{Name: "p", Work: prog}}}); err != nil {
				t.Fatal(err)
			}
			times := make([]int64, len(cores))
			stats := make([]Stats, len(cores))
			for i, c := range cores {
				times[i] = mm.CoreTime(c)
				stats[i] = mm.CoreStats(c)
			}
			return times, stats
		}
		if err := m.Run(Job{Name: "fuzz", Cores: cores, Phases: []Phase{{Name: "p", Work: prog}}}); err != nil {
			t.Fatal(err)
		}
		end := m.CoreTime(cores[0])
		for _, c := range cores {
			s := m.CoreStats(c)
			if s.Busy() != end {
				t.Fatalf("seed %d core %d: attributed %d of %d cycles", seed, c, s.Busy(), end)
			}
			if m.CoreTime(c) != end {
				t.Fatalf("seed %d: cores not aligned after barrier", seed)
			}
		}
		// Determinism: a fresh machine must reproduce identical timing.
		t1, s1 := run()
		t2, s2 := run()
		for i := range t1 {
			if t1[i] != t2[i] || s1[i] != s2[i] {
				t.Fatalf("seed %d: nondeterministic replay at core %d", seed, cores[i])
			}
		}
	}
}
