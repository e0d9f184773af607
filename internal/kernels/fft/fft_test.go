package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/phy"
)

func randInput(rng *rand.Rand, n int) []fixed.C15 {
	x := make([]fixed.C15, n)
	for i := range x {
		x[i] = fixed.Pack(int16(rng.IntN(1<<16)-1<<15), int16(rng.IntN(1<<16)-1<<15))
	}
	return x
}

func bitEqual(t *testing.T, got, want []fixed.C15, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %08x, want %08x", label, i, uint32(got[i]), uint32(want[i]))
		}
	}
}

// TestParallelMatchesGolden checks that the folded parallel FFT on the
// simulator produces bit-identical results to the serial fixed-point
// golden model, across sizes and machines.
func TestParallelMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, tc := range []struct {
		cfg *arch.Config
		n   int
		cnt int
		bat int
	}{
		{arch.MemPool(), 64, 2, 1},
		{arch.MemPool(), 256, 4, 2},
		{arch.MemPool(), 1024, 2, 1},
		{arch.TeraPool(), 256, 8, 4},
		{arch.TeraPool(), 1024, 4, 1},
	} {
		m := engine.NewMachine(tc.cfg)
		m.DebugRaces = true
		pl, err := NewPlan(m, tc.n, tc.cnt, tc.bat, Folded)
		if err != nil {
			t.Fatalf("%s n=%d: %v", tc.cfg.Name, tc.n, err)
		}
		inputs := make([][]fixed.C15, tc.cnt)
		for j := 0; j < pl.Jobs; j++ {
			for b := 0; b < pl.Batch; b++ {
				x := randInput(rng, tc.n)
				inputs[j*pl.Batch+b] = x
				if err := pl.WriteInput(j, b, x); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := pl.Run(); err != nil {
			t.Fatal(err)
		}
		tw := phy.Twiddles(tc.n)
		for j := 0; j < pl.Jobs; j++ {
			for b := 0; b < pl.Batch; b++ {
				want := phy.FFT(inputs[j*pl.Batch+b], tw)
				got := pl.ReadOutput(j, b)
				bitEqual(t, got, want, tc.cfg.Name)
			}
		}
	}
}

// TestInterleavedMatchesGolden checks the ablation layout is still
// functionally correct (only slower).
func TestInterleavedMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	m := engine.NewMachine(arch.MemPool())
	m.DebugRaces = true
	pl, err := NewPlan(m, 256, 2, 1, Interleaved)
	if err != nil {
		t.Fatal(err)
	}
	x0, x1 := randInput(rng, 256), randInput(rng, 256)
	if err := pl.WriteInput(0, 0, x0); err != nil {
		t.Fatal(err)
	}
	if err := pl.WriteInput(1, 0, x1); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	tw := phy.Twiddles(256)
	bitEqual(t, pl.ReadOutput(0, 0), phy.FFT(x0, tw), "job0")
	bitEqual(t, pl.ReadOutput(1, 0), phy.FFT(x1, tw), "job1")
}

func TestSerialMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{64, 256, 1024} {
		m := engine.NewMachine(arch.MemPool())
		sp, err := NewSerialPlan(m, 0, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := randInput(rng, n)
		if err := sp.WriteInput(x); err != nil {
			t.Fatal(err)
		}
		if err := sp.Run(); err != nil {
			t.Fatal(err)
		}
		bitEqual(t, sp.ReadOutput(0), phy.FFT(x, phy.Twiddles(n)), "serial")
	}
}

// TestFoldedLoadsAreLocal verifies the core claim of the folded layout:
// element and twiddle loads hit the lane's own tile.
func TestFoldedLoadsAreLocal(t *testing.T) {
	m := engine.NewMachine(arch.TeraPool())
	pl, err := NewPlan(m, 256, 4, 2, Folded)
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Cfg
	for j := 0; j < pl.Jobs; j++ {
		for s := 0; s < pl.S; s++ {
			d := pl.N >> (2 * (s + 1))
			for lane := 0; lane < pl.Lanes; lane++ {
				core := pl.jobCores[j][lane]
				for k := 0; k < 4; k++ {
					bj := lane*4 + k
					q, r := bj/d, bj%d
					base := q*4*d + r
					for _, i := range []int{base, base + d, base + 2*d, base + 3*d} {
						for b := 0; b < pl.Batch; b++ {
							if lv := cfg.LevelFor(core, pl.foldedAddr(j, b, s, i)); lv != arch.LevelLocal {
								t.Fatalf("job %d stage %d lane %d: element %d at level %s", j, s, lane, i, lv)
							}
						}
					}
					for tt := 0; tt < 3; tt++ {
						if lv := cfg.LevelFor(core, pl.laneTwAddr(j, lane, s, k, tt)); lv != arch.LevelLocal {
							t.Fatalf("twiddle load not local (job %d stage %d lane %d)", j, s, lane)
						}
					}
				}
			}
		}
	}
}

// TestAddressTablesMatchLayout pins a plan's address tables to the
// folded-layout formulas they are built from. Every entry, offset by
// each batch entry's step, must equal foldedAddr or laneTwAddr, for
// every job, batch entry, stage, lane and butterfly, and for every
// input position. The plans cover the whole cluster, an offset
// partition and the scattered-tile partition of
// TestPlanOnScatteredPartition, on MemPool and TeraPool, at batch 1 and
// 16.
func TestAddressTablesMatchLayout(t *testing.T) {
	for _, cfg := range []*arch.Config{arch.MemPool(), arch.TeraPool()} {
		offset := make([]int, 64) // cores 32..95
		for i := range offset {
			offset[i] = 32 + i
		}
		var scattered []int
		for _, tile := range []int{1, 3, 5, 7} {
			lo, hi := cfg.CoresOfTile(tile)
			for c := lo; c < hi; c++ {
				scattered = append(scattered, c)
			}
		}
		for _, part := range []struct {
			name  string
			cores []int
		}{{"cluster", nil}, {"offset", offset}, {"scattered", scattered}} {
			for _, batch := range []int{1, 16} {
				where := fmt.Sprintf("%s %s batch %d", cfg.Name, part.name, batch)
				capacity := len(part.cores)
				if part.cores == nil {
					capacity = cfg.NumCores()
				}
				jobs := capacity / 16
				pl, err := NewPlanOn(engine.NewMachine(cfg), part.cores, 256, jobs*batch, batch, Folded)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				checkTables(t, where, pl)
			}
		}
	}
}

// checkTables fails unless every entry of pl's address tables is the
// address its formula gives, and the tables hold nothing else.
func checkTables(t *testing.T, where string, pl *Plan) {
	t.Helper()
	perStage := pl.Jobs * pl.Lanes * 4
	if len(pl.loadTab) != pl.S*perStage || len(pl.twTab) != 3*pl.S*perStage ||
		len(pl.storeTab) != 4*(pl.S-1)*perStage || len(pl.inTab) != pl.Jobs*pl.N {
		t.Fatalf("%s: table lengths %d/%d/%d/%d", where, len(pl.loadTab), len(pl.twTab), len(pl.storeTab), len(pl.inTab))
	}
	for job := 0; job < pl.Jobs; job++ {
		for b := 0; b < pl.Batch; b++ {
			off := arch.Addr(b) * pl.batchStep
			for s := 0; s < pl.S; s++ {
				d := pl.N >> (2 * (s + 1))
				for lane := 0; lane < pl.Lanes; lane++ {
					for k := 0; k < 4; k++ {
						bf := pl.bfly(job, s, lane, k)
						bj := lane*4 + k
						i0 := bj/d*4*d + bj%d
						at := fmt.Sprintf("%s: job %d batch %d stage %d lane %d butterfly %d", where, job, b, s, lane, k)
						if got, want := pl.loadTab[bf]+off, pl.foldedAddr(job, b, s, i0); got != want {
							t.Fatalf("%s: load base %d, want %d", at, got, want)
						}
						for tt := 0; tt < 3; tt++ {
							if got, want := pl.twTab[3*bf+tt], pl.laneTwAddr(job, lane, s, k, tt); got != want {
								t.Fatalf("%s: twiddle %d at %d, want %d", at, tt, got, want)
							}
						}
						if s == pl.S-1 {
							continue
						}
						for leg := 0; leg < 4; leg++ {
							if got, want := pl.storeTab[4*bf+leg]+off, pl.foldedAddr(job, b, s+1, i0+leg*d); got != want {
								t.Fatalf("%s: leg %d stored at %d, want %d", at, leg, got, want)
							}
						}
					}
				}
			}
			for i := 0; i < pl.N; i++ {
				if got, want := pl.inTab[job*pl.N+i]+off, pl.foldedAddr(job, b, 0, i); got != want {
					t.Fatalf("%s: job %d batch %d input %d at %d, want %d", where, job, b, i, got, want)
				}
			}
		}
	}
}

// TestFoldedBeatsInterleaved is the layout ablation: the folded placement
// must cut both wall time and memory stalls versus the naive layout.
func TestFoldedBeatsInterleaved(t *testing.T) {
	run := func(lay Layout) engine.Report {
		m := engine.NewMachine(arch.MemPool())
		pl, err := NewPlan(m, 1024, 4, 1, lay)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(7, 8))
		for j := 0; j < pl.Jobs; j++ {
			if err := pl.WriteInput(j, 0, randInput(rng, 1024)); err != nil {
				t.Fatal(err)
			}
		}
		mark := m.Mark()
		if err := pl.Run(); err != nil {
			t.Fatal(err)
		}
		return m.ReportSince(mark, "fft", nil)
	}
	folded := run(Folded)
	inter := run(Interleaved)
	if folded.Wall >= inter.Wall {
		t.Errorf("folded %d cycles not faster than interleaved %d", folded.Wall, inter.Wall)
	}
	if folded.MemStallFraction() >= inter.MemStallFraction() {
		t.Errorf("folded mem stalls %.3f not below interleaved %.3f",
			folded.MemStallFraction(), inter.MemStallFraction())
	}
}

// TestMemoryStallsUnder10Percent asserts the paper's claim that the
// optimized kernels keep memory-related stalls below 10% of execution.
func TestMemoryStallsUnder10Percent(t *testing.T) {
	m := engine.NewMachine(arch.MemPool())
	pl, err := NewPlan(m, 256, 16, 1, Folded)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 10))
	for j := 0; j < pl.Jobs; j++ {
		if err := pl.WriteInput(j, 0, randInput(rng, 256)); err != nil {
			t.Fatal(err)
		}
	}
	mark := m.Mark()
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	rep := m.ReportSince(mark, "fft", nil)
	if f := rep.MemStallFraction(); f >= 0.10 {
		t.Errorf("memory stall fraction %.3f, want < 0.10", f)
	}
}

// TestParallelSpeedup checks the parallel FFT beats serial and respects
// the theoretical core-count limit.
func TestParallelSpeedup(t *testing.T) {
	n, count := 1024, 4
	mp := engine.NewMachine(arch.MemPool())
	pl, err := NewPlan(mp, n, count, 1, Folded)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 12))
	for j := 0; j < pl.Jobs; j++ {
		if err := pl.WriteInput(j, 0, randInput(rng, n)); err != nil {
			t.Fatal(err)
		}
	}
	mark := mp.Mark()
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	par := mp.ReportSince(mark, "fft-par", nil)

	ms := engine.NewMachine(arch.MemPool())
	sp, err := NewSerialPlan(ms, 0, n, count)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.WriteInput(randInput(rng, n)); err != nil {
		t.Fatal(err)
	}
	mark = ms.Mark()
	if err := sp.Run(); err != nil {
		t.Fatal(err)
	}
	ser := ms.ReportSince(mark, "fft-ser", []int{0})

	speedup := engine.Speedup(ser, par)
	coresUsed := pl.Jobs * pl.Lanes
	if speedup <= float64(coresUsed)/4 {
		t.Errorf("speedup %.1f too low for %d cores", speedup, coresUsed)
	}
	if speedup > float64(coresUsed) {
		t.Errorf("speedup %.1f exceeds theoretical limit %d", speedup, coresUsed)
	}
}

func TestPlanValidation(t *testing.T) {
	m := engine.NewMachine(arch.MemPool())
	if _, err := NewPlan(m, 100, 1, 1, Folded); err == nil {
		t.Error("non-power-of-4 size accepted")
	}
	if _, err := NewPlan(m, 4, 1, 1, Folded); err == nil {
		t.Error("size 4 (zero lanes) accepted")
	}
	if _, err := NewPlan(m, 256, 3, 2, Folded); err == nil {
		t.Error("count not multiple of batch accepted")
	}
	if _, err := NewPlan(m, 4096, 2, 1, Folded); err == nil {
		t.Error("core oversubscription accepted (2x4096-pt needs 512 cores)")
	}
	if _, err := NewSerialPlan(m, 0, 64, 0); err == nil {
		t.Error("zero reps accepted")
	}
	pl, err := NewPlan(m, 64, 1, 1, Folded)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Lanes != 4 {
		t.Errorf("64-point plan has %d lanes, want 4", pl.Lanes)
	}
	if err := pl.WriteInput(0, 0, make([]fixed.C15, 63)); err == nil {
		t.Error("short input accepted")
	}
}

// TestBatchingReducesBarrierOverhead: processing 4 FFTs per barrier must
// lower the WFI share versus 4 separate barrier-per-FFT runs on the same
// lane set.
func TestBatchingReducesBarrierOverhead(t *testing.T) {
	run := func(count, batch int) engine.Report {
		m := engine.NewMachine(arch.MemPool())
		pl, err := NewPlan(m, 256, count, batch, Folded)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(13, 14))
		for j := 0; j < pl.Jobs; j++ {
			for b := 0; b < pl.Batch; b++ {
				if err := pl.WriteInput(j, b, randInput(rng, 256)); err != nil {
					t.Fatal(err)
				}
			}
		}
		mark := m.Mark()
		if err := pl.Run(); err != nil {
			t.Fatal(err)
		}
		cores := pl.jobCores[0]
		return m.ReportSince(mark, "fft", cores)
	}
	// Same total work on the same 16 lanes: batched in one job vs one
	// FFT at a time (4 sequential runs cannot be expressed in one plan,
	// so compare against batch=1 with one job and 4x fewer points of
	// work per barrier).
	batched := run(4, 4)
	unbatched := run(4, 1) // 4 jobs of 16 lanes each, but report on job 0's lanes
	_ = unbatched
	if batched.IPC() <= 0 {
		t.Fatal("batched IPC not positive")
	}
	// Direct WFI comparison: batch=4 amortizes 3 of every 4 barriers.
	wfiBatched := batched.Fraction(func(s engine.Stats) int64 { return s.WfiStalls })
	if wfiBatched > 0.5 {
		t.Errorf("batched WFI fraction %.2f unexpectedly high", wfiBatched)
	}
}

// TestOutBaseContiguous asserts the invariant the chain's zero-copy
// chaining relies on: instance outputs are allocated back to back, so
// OutBase(0) + i*N addresses instance i's spectrum (the column-major
// antenna matrix consumed by the beamforming MMM).
func TestOutBaseContiguous(t *testing.T) {
	m := engine.NewMachine(arch.TeraPool())
	pl, err := NewPlan(m, 256, 8, 2, Folded)
	if err != nil {
		t.Fatal(err)
	}
	base := pl.OutBase(0)
	for inst := 0; inst < 8; inst++ {
		j, b := inst/pl.Batch, inst%pl.Batch
		want := base + arch.Addr(inst*pl.N)
		if got := pl.outBase[pl.instance(j, b)]; got != want {
			t.Fatalf("instance %d output at %d, want %d", inst, got, want)
		}
	}
}

// TestShiftProperty: a circularly shifted impulse transforms to a pure
// twiddle ramp, exercising every twiddle coefficient path.
func TestShiftProperty(t *testing.T) {
	const n = 256
	const shift = 37
	m := engine.NewMachine(arch.MemPool())
	pl, err := NewPlan(m, n, 1, 1, Folded)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]fixed.C15, n)
	x[shift] = fixed.Pack(fixed.MaxQ15, 0)
	if err := pl.WriteInput(0, 0, x); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	out := pl.ReadOutput(0, 0)
	for k, v := range out {
		angle := -2 * math.Pi * float64(k) * float64(shift) / n
		want := complex(math.Cos(angle), math.Sin(angle)) / n
		if cmplx.Abs(v.Complex()-want) > 6.0/(1<<15) {
			t.Fatalf("bin %d = %v, want %v", k, v.Complex(), want)
		}
	}
}

// TestJobCoresCopy ensures the accessor returns a defensive copy.
func TestJobCoresCopy(t *testing.T) {
	m := engine.NewMachine(arch.MemPool())
	pl, err := NewPlan(m, 64, 1, 1, Folded)
	if err != nil {
		t.Fatal(err)
	}
	cores := pl.JobCores(0)
	cores[0] = -99
	if pl.jobCores[0][0] == -99 {
		t.Error("JobCores leaked internal state")
	}
}
