package chol

import (
	"math/rand/v2"
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/phy"
)

// testGramian builds a well-conditioned packed Q15 Gramian of size n.
func testGramian(rng *rand.Rand, n int) []fixed.C15 {
	nb := 2 * n
	h := make([]fixed.C15, nb*n)
	for i := range h {
		h[i] = fixed.FromComplex(complex(
			(rng.Float64()*2-1)*0.6,
			(rng.Float64()*2-1)*0.6,
		))
	}
	shift := uint(1)
	for 1<<shift < nb {
		shift++
	}
	return phy.Gramian(h, nb, n, shift+1, fixed.FloatToQ15(0.05))
}

func bitEqualLower(t *testing.T, got, want []fixed.C15, n int, label string) {
	t.Helper()
	for i := 0; i < n; i++ {
		for k := 0; k <= i; k++ {
			if got[i*n+k] != want[i*n+k] {
				t.Fatalf("%s: L[%d][%d] = %08x, want %08x", label, i, k,
					uint32(got[i*n+k]), uint32(want[i*n+k]))
			}
		}
	}
}

func TestPairMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, tc := range []struct {
		cfg   *arch.Config
		n     int
		pairs int
	}{
		{arch.MemPool(), 8, 2},
		{arch.MemPool(), 16, 4},
		{arch.MemPool(), 32, 4},
		{arch.TeraPool(), 32, 8},
	} {
		m := engine.NewMachine(tc.cfg)
		m.DebugRaces = true
		pl, err := NewPairPlan(m, tc.n, tc.pairs)
		if err != nil {
			t.Fatalf("%s n=%d: %v", tc.cfg.Name, tc.n, err)
		}
		inputs := make([][2][]fixed.C15, tc.pairs)
		for pr := 0; pr < tc.pairs; pr++ {
			for q := 0; q < 2; q++ {
				g := testGramian(rng, tc.n)
				inputs[pr][q] = g
				if err := pl.WriteG(pr, q, g); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := pl.Run(); err != nil {
			t.Fatal(err)
		}
		for pr := 0; pr < tc.pairs; pr++ {
			for q := 0; q < 2; q++ {
				want := phy.Cholesky(inputs[pr][q], tc.n)
				got := pl.ReadL(pr, q)
				bitEqualLower(t, got, want, tc.n, tc.cfg.Name)
			}
		}
	}
}

func TestReplicatedMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	m := engine.NewMachine(arch.MemPool())
	m.DebugRaces = true
	coreCount, rounds, per := 16, 2, 3
	pl, err := NewReplicatedPlan(m, 4, coreCount, rounds, per)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]fixed.C15, coreCount*rounds*per)
	for lane := 0; lane < coreCount; lane++ {
		for rep := 0; rep < rounds*per; rep++ {
			g := testGramian(rng, 4)
			inputs[lane*rounds*per+rep] = g
			if err := pl.WriteG(lane, rep, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < coreCount; lane++ {
		for rep := 0; rep < rounds*per; rep++ {
			want := phy.Cholesky(inputs[lane*rounds*per+rep], 4)
			bitEqualLower(t, pl.ReadL(lane, rep), want, 4, "replicated")
		}
	}
}

func TestSerialMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	m := engine.NewMachine(arch.MemPool())
	pl, err := NewSerialPlan(m, 0, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]fixed.C15, 3)
	for rep := range inputs {
		inputs[rep] = testGramian(rng, 16)
		if err := pl.WriteG(rep, inputs[rep]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	for rep := range inputs {
		bitEqualLower(t, pl.ReadL(rep), phy.Cholesky(inputs[rep], 16), 16, "serial")
	}
}

// TestRowsFoldedToOneBank checks the placement claim: every element of an
// output row lives in the same bank.
func TestRowsFoldedToOneBank(t *testing.T) {
	m := engine.NewMachine(arch.MemPool())
	pl, err := NewPairPlan(m, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Cfg
	for q := 0; q < 2; q++ {
		for i := 0; i < 32; i++ {
			b0 := cfg.BankOf(pl.lAddr(0, q, i, 0))
			for k := 1; k <= i; k++ {
				if b := cfg.BankOf(pl.lAddr(0, q, i, k)); b != b0 {
					t.Fatalf("instance %d row %d spans banks %d and %d", q, i, b0, b)
				}
			}
			// And the row is local to its owner.
			core := pl.cores[0][pl.ownerLane(q, i)]
			if lv := cfg.LevelFor(core, pl.lAddr(0, q, i, 0)); lv != arch.LevelLocal {
				t.Fatalf("instance %d row %d not local to owner (level %s)", q, i, lv)
			}
		}
	}
}

// TestMirroringBalancesLoad compares the WFI skew of a mirrored pair with
// a hypothetical single-instance run: with mirroring, per-core busy time
// must be much more even.
func TestMirroringBalancesLoad(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	m := engine.NewMachine(arch.MemPool())
	pl, err := NewPairPlan(m, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 2; q++ {
		if err := pl.WriteG(0, q, testGramian(rng, 32)); err != nil {
			t.Fatal(err)
		}
	}
	mark := m.Mark()
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	rep := m.ReportSince(mark, "chol-pair", pl.cores[0])
	// The mirrored staircase must keep WFI below a third of the time.
	wfi := rep.Fraction(func(s engine.Stats) int64 { return s.WfiStalls })
	if wfi > 0.45 {
		t.Errorf("WFI fraction %.2f too high for mirrored pair", wfi)
	}
	// Per-core instruction counts must be within 2x of each other
	// (without mirroring the top core does nearly 2x the bottom's work
	// in one instance and 0 in the other).
	var minI, maxI int64 = 1 << 62, 0
	for _, c := range pl.cores[0] {
		instr := m.CoreStats(c).Instrs
		if instr < minI {
			minI = instr
		}
		if instr > maxI {
			maxI = instr
		}
	}
	if maxI > 2*minI {
		t.Errorf("instruction imbalance %d..%d exceeds 2x", minI, maxI)
	}
}

// TestFewerBarriersRaiseIPC: one barrier per 16 decompositions must beat
// one barrier per decomposition round.
func TestFewerBarriersRaiseIPC(t *testing.T) {
	run := func(rounds, per int) float64 {
		rng := rand.New(rand.NewPCG(9, 10))
		m := engine.NewMachine(arch.MemPool())
		pl, err := NewReplicatedPlan(m, 4, m.Cfg.NumCores(), rounds, per)
		if err != nil {
			t.Fatal(err)
		}
		for lane := 0; lane < len(pl.Cores); lane++ {
			for rep := 0; rep < rounds*per; rep++ {
				if err := pl.WriteG(lane, rep, testGramian(rng, 4)); err != nil {
					t.Fatal(err)
				}
			}
		}
		mark := m.Mark()
		if err := pl.Run(); err != nil {
			t.Fatal(err)
		}
		return m.ReportSince(mark, "chol-rep", pl.Cores).IPC()
	}
	perBarrier := run(16, 1)
	batched := run(1, 16)
	if batched <= perBarrier {
		t.Errorf("batched IPC %.3f not above per-round-barrier IPC %.3f", batched, perBarrier)
	}
}

// TestExtUnitStallsPresent: the staircase structure keeps the divide/sqrt
// unit on the critical path, so external-unit stalls must be visible,
// matching Fig. 8c.
func TestExtUnitStallsPresent(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	m := engine.NewMachine(arch.MemPool())
	pl, err := NewSerialPlan(m, 0, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 16; rep++ {
		if err := pl.WriteG(rep, testGramian(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	mark := m.Mark()
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	rep := m.ReportSince(mark, "chol-serial", []int{0})
	ext := rep.Fraction(func(s engine.Stats) int64 { return s.ExtStalls })
	raw := rep.Fraction(func(s engine.Stats) int64 { return s.RawStalls })
	if ext+raw < 0.15 {
		t.Errorf("ext+raw stall fraction %.2f too low for a 4x4 staircase", ext+raw)
	}
}

func TestPlanValidation(t *testing.T) {
	m := engine.NewMachine(arch.MemPool())
	if _, err := NewPairPlan(m, 6, 1); err == nil {
		t.Error("size not multiple of 4 accepted")
	}
	if _, err := NewPairPlan(m, 32, 0); err == nil {
		t.Error("zero pairs accepted")
	}
	if _, err := NewPairPlan(m, 4096, 1); err == nil {
		t.Error("oversubscription accepted")
	}
	if _, err := NewReplicatedPlan(m, 8, 4, 1, 1); err == nil {
		t.Error("replicated size > 4 accepted")
	}
	if _, err := NewReplicatedPlan(m, 4, 0, 1, 1); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewReplicatedPlan(m, 4, 4, 0, 1); err == nil {
		t.Error("zero rounds accepted")
	}
	// puschsim -chol-batch 1099511627776: the input table alone would
	// exceed the address space.
	if _, err := NewReplicatedPlan(m, 4, m.Cfg.NumCores(), 1, 1<<40); err == nil {
		t.Error("replicated inputs beyond L1 accepted")
	}
	if _, err := NewReplicatedPlan(m, 4, 4, 1<<40, 1<<40); err == nil {
		t.Error("overflowing rounds x perRound accepted")
	}
	if _, err := NewPairPlan(m, 4<<32, 1<<32); err == nil {
		t.Error("overflowing pairs x lanes accepted")
	}
	if _, err := NewSerialPlan(m, 0, 1, 1); err == nil {
		t.Error("size 1 accepted")
	}
	if _, err := NewSerialPlan(m, 0, 4, 0); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := NewSerialPlan(m, 0, 4, 1<<40); err == nil {
		t.Error("serial decompositions beyond L1 accepted")
	}
	if _, err := NewSerialPlan(m, 0, 1<<32, 1); err == nil {
		t.Error("overflowing serial size accepted")
	}
}

// TestSpeedup: replicated mode on the full cluster versus the serial
// baseline doing the same number of decompositions.
func TestSpeedup(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	mPar := engine.NewMachine(arch.MemPool())
	cores := mPar.Cfg.NumCores()
	pl, err := NewReplicatedPlan(mPar, 4, cores, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	gs := make([][]fixed.C15, 4)
	for i := range gs {
		gs[i] = testGramian(rng, 4)
	}
	for lane := 0; lane < cores; lane++ {
		for rep := 0; rep < 4; rep++ {
			if err := pl.WriteG(lane, rep, gs[rep]); err != nil {
				t.Fatal(err)
			}
		}
	}
	mark := mPar.Mark()
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	par := mPar.ReportSince(mark, "par", pl.Cores)

	mSer := engine.NewMachine(arch.MemPool())
	// Serial equivalent: 4 decompositions (one core's share) repeated for
	// all cores is too slow to simulate at full scale in a unit test;
	// instead simulate one core's share and scale the comparison.
	sp, err := NewSerialPlan(mSer, 0, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 4; rep++ {
		if err := sp.WriteG(rep, gs[rep]); err != nil {
			t.Fatal(err)
		}
	}
	mark = mSer.Mark()
	if err := sp.Run(); err != nil {
		t.Fatal(err)
	}
	ser := mSer.ReportSince(mark, "ser", []int{0})

	// The parallel run does cores x the serial work; speedup vs the
	// scaled serial time must be a large fraction of the core count.
	scaledSerial := engine.Report{Wall: ser.Wall * int64(cores), Cores: 1}
	sp2 := engine.Speedup(scaledSerial, par)
	if sp2 < float64(cores)/3 || sp2 > float64(cores) {
		t.Errorf("speedup %.0f outside plausible range for %d cores", sp2, cores)
	}
}

// TestPipelinedMatchesGolden: the software-pipelined pair mode must stay
// bit-identical to the golden model (the pipelining only reorders work
// between independent matrices).
func TestPipelinedMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	m := engine.NewMachine(arch.MemPool())
	m.DebugRaces = true
	coreCount, per := 8, 5 // odd PerRound exercises the tail path
	pl, err := NewReplicatedPlan(m, 4, coreCount, 1, per)
	if err != nil {
		t.Fatal(err)
	}
	pl.Pipelined = true
	inputs := make([][]fixed.C15, coreCount*per)
	for lane := 0; lane < coreCount; lane++ {
		for rep := 0; rep < per; rep++ {
			g := testGramian(rng, 4)
			inputs[lane*per+rep] = g
			if err := pl.WriteG(lane, rep, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < coreCount; lane++ {
		for rep := 0; rep < per; rep++ {
			want := phy.Cholesky(inputs[lane*per+rep], 4)
			bitEqualLower(t, pl.ReadL(lane, rep), want, 4, "pipelined")
		}
	}
}

// TestPipelinedRaisesIPC: hiding the divide/sqrt latency behind the
// partner matrix's MAC stream must beat the plain element-by-element
// schedule.
func TestPipelinedRaisesIPC(t *testing.T) {
	run := func(pipelined bool) float64 {
		rng := rand.New(rand.NewPCG(23, 24))
		m := engine.NewMachine(arch.MemPool())
		pl, err := NewReplicatedPlan(m, 4, m.Cfg.NumCores(), 1, 16)
		if err != nil {
			t.Fatal(err)
		}
		pl.Pipelined = pipelined
		for lane := 0; lane < len(pl.Cores); lane++ {
			for rep := 0; rep < 16; rep++ {
				if err := pl.WriteG(lane, rep, testGramian(rng, 4)); err != nil {
					t.Fatal(err)
				}
			}
		}
		mark := m.Mark()
		if err := pl.Run(); err != nil {
			t.Fatal(err)
		}
		return m.ReportSince(mark, "chol", pl.Cores).IPC()
	}
	plain := run(false)
	piped := run(true)
	if piped <= plain {
		t.Errorf("pipelined IPC %.3f not above plain %.3f", piped, plain)
	}
}
