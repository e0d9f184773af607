// Package bench contains the experiment runners that regenerate the
// paper's evaluation figures: per-kernel IPC and stall breakdowns
// (Fig. 8), speedups and cycle counts against a serial single-core
// baseline (Fig. 9a-b), and the supporting ablations. cmd/kernelbench
// and the repository's testing.B benchmarks both drive this package.
package bench

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/kernels/chol"
	"repro/internal/kernels/fft"
	"repro/internal/kernels/mmm"
	"repro/internal/phy"
	"repro/internal/report"
)

// Result is one kernel configuration's measurement.
type Result struct {
	Label     string
	Kernel    string // kernel family: "fft", "mmm" or "chol"
	Cluster   string
	CoresUsed int

	Parallel engine.Report
	// SerialWall is the projected single-core cycle count for the same
	// total work (measured on a small batch and scaled; the scaling
	// factor is exact because the serial kernel is loop-invariant).
	SerialWall int64
	SerialIPC  float64
}

// Record converts the measurement into its typed telemetry record, the
// unit cmd/kernelbench emits as JSON and cmd/benchgate diffs against the
// committed baselines.
func (r *Result) Record() report.KernelRecord {
	return report.KernelRecord{
		Kernel:       r.Kernel,
		Label:        r.Label,
		Cluster:      r.Cluster,
		CoresUsed:    r.CoresUsed,
		Parallel:     report.NewWindow(r.Parallel),
		SerialCycles: r.SerialWall,
		SerialIPC:    r.SerialIPC,
		Speedup:      r.Speedup(),
		Utilization:  r.Utilization(),
	}
}

// Speedup returns the Fig. 9 speedup.
func (r *Result) Speedup() float64 {
	if r.Parallel.Wall == 0 {
		return 0
	}
	return float64(r.SerialWall) / float64(r.Parallel.Wall)
}

// Utilization is speedup over cores used.
func (r *Result) Utilization() float64 {
	if r.CoresUsed == 0 {
		return 0
	}
	return r.Speedup() / float64(r.CoresUsed)
}

// deepen returns a copy of cfg whose banks are deepened enough to hold
// need words, mirroring the DMA-fed double buffering the paper assumes
// for working sets beyond physical L1. Timing is unaffected: only bank
// capacity grows.
func deepen(cfg *arch.Config, need int) *arch.Config {
	c := *cfg
	for c.MemWords() < need {
		c.BankWords *= 2
	}
	return &c
}

// withSerial runs the serial baseline on a second goroutine while the
// parallel pass runs on this one, and returns both reports, the parallel
// pass's error first. The two build and measure separate machines and
// share only inputs drawn beforehand, so each report is the one a
// sequential run gives.
func withSerial(parallel, serial func() (engine.Report, error)) (par, ser engine.Report, err error) {
	done := make(chan error, 1)
	go func() {
		var err error
		ser, err = serial()
		done <- err
	}()
	par, err = parallel()
	if serErr := <-done; err == nil {
		err = serErr
	}
	return par, ser, err
}

// core0 scopes a serial-baseline measurement to the core actually
// executing it: with nil (whole-cluster) scoping the wall window and
// stall totals include every idle core, which skews serial IPC.
var core0 = []int{0}

func randC15(rng *rand.Rand, n int) []fixed.C15 {
	out := make([]fixed.C15, n)
	for i := range out {
		out[i] = fixed.Pack(int16(rng.IntN(1<<16)-1<<15), int16(rng.IntN(1<<16)-1<<15))
	}
	return out
}

// FFTConfig names one Fig. 8a / Fig. 9 FFT experiment.
type FFTConfig struct {
	Label string
	N     int
	Count int
	Batch int
}

// PaperFFTConfigs returns the paper's three FFT configurations for a
// cluster: all-cores independent 256-point FFTs, the largest 4096-point
// transforms, and the batched variant that amortizes barriers.
func PaperFFTConfigs(cfg *arch.Config) []FFTConfig {
	cores := cfg.NumCores()
	return []FFTConfig{
		{Label: fmt.Sprintf("%d FFTs 256-pt", cores/16), N: 256, Count: cores / 16, Batch: 1},
		{Label: fmt.Sprintf("%d FFT(s) 4096-pt", cores/256), N: 4096, Count: cores / 256, Batch: 1},
		{Label: fmt.Sprintf("%dx16 FFTs 4096-pt", cores/256), N: 4096, Count: 16 * (cores / 256), Batch: 16},
	}
}

// RunFFT measures one FFT configuration: warm parallel pass plus a
// scaled serial baseline, run side by side.
func RunFFT(cfg *arch.Config, fc FFTConfig) (*Result, error) {
	rng := rand.New(rand.NewPCG(uint64(fc.N), uint64(fc.Count)))
	// Working set: folded buffers live in tile rows; outputs and
	// twiddles in the sequential arena.
	need := fc.Count*fc.N + 3*fc.N/4 + fc.N
	mach := engine.NewMachine(deepen(cfg, need*2))
	pl, err := fft.NewPlan(mach, fc.N, fc.Count, fc.Batch, fft.Folded)
	if err != nil {
		return nil, err
	}
	for j := 0; j < pl.Jobs; j++ {
		for b := 0; b < pl.Batch; b++ {
			if err := pl.WriteInput(j, b, randC15(rng, fc.N)); err != nil {
				return nil, err
			}
		}
	}
	serialIn := randC15(rng, fc.N)
	par, ser, err := withSerial(
		func() (engine.Report, error) { return mach.RunWarm("fft", nil, pl.JobsList()...) },
		func() (engine.Report, error) {
			ms := engine.NewMachine(cfg)
			sp, err := fft.NewSerialPlan(ms, 0, fc.N, 1)
			if err != nil {
				return engine.Report{}, err
			}
			if err := sp.WriteInput(serialIn); err != nil {
				return engine.Report{}, err
			}
			return ms.RunWarm("fft-serial", core0, sp.Job())
		})
	if err != nil {
		return nil, err
	}
	return &Result{
		Label:      fc.Label,
		Kernel:     "fft",
		Cluster:    cfg.Name,
		CoresUsed:  pl.Jobs * pl.Lanes,
		Parallel:   par,
		SerialWall: ser.Wall * int64(fc.Count),
		SerialIPC:  ser.IPC(),
	}, nil
}

// MMMConfig names one Fig. 8b / Fig. 9 MMM experiment.
type MMMConfig struct {
	Label   string
	M, N, P int
}

// PaperMMMConfigs returns the paper's three MMM shapes.
func PaperMMMConfigs() []MMMConfig {
	return []MMMConfig{
		{Label: "128x128x128 MMM", M: 128, N: 128, P: 128},
		{Label: "256x128x256 MMM", M: 256, N: 128, P: 256},
		{Label: "4096x64x32 MMM", M: 4096, N: 64, P: 32},
	}
}

// RunMMM measures one MMM configuration on the whole cluster plus the
// serial baseline, run side by side.
func RunMMM(cfg *arch.Config, mc MMMConfig) (*Result, error) {
	rng := rand.New(rand.NewPCG(uint64(mc.M), uint64(mc.P)))
	need := 2 * (mc.M*mc.N + mc.N*mc.P + mc.M*mc.P)
	cluster := deepen(cfg, need)

	mach := engine.NewMachine(cluster)
	pl, err := mmm.NewPlan(mach, mc.M, mc.N, mc.P, cluster.NumCores(), mmm.Options{})
	if err != nil {
		return nil, err
	}
	a := randC15(rng, mc.M*mc.N)
	b := randC15(rng, mc.N*mc.P)
	if err := pl.WriteA(a); err != nil {
		return nil, err
	}
	if err := pl.WriteB(b); err != nil {
		return nil, err
	}
	par, ser, err := withSerial(
		func() (engine.Report, error) { return mach.RunWarm("mmm", nil, pl.Job()) },
		func() (engine.Report, error) {
			ms := engine.NewMachine(cluster)
			sp, err := mmm.NewPlan(ms, mc.M, mc.N, mc.P, 1, mmm.Options{})
			if err != nil {
				return engine.Report{}, err
			}
			if err := sp.WriteA(a); err != nil {
				return engine.Report{}, err
			}
			if err := sp.WriteB(b); err != nil {
				return engine.Report{}, err
			}
			// The serial pass runs millions of instructions, so it stays
			// one cold pass: the refill of its 10 I$ lines is noise. Its
			// bank accesses all book above their banks' frontiers, so the
			// reservation table keeps them in its frontier log (8 bytes
			// each) rather than claiming a bitmap page per access (see
			// docs/ARCHITECTURE.md, "Frontier log").
			mark := ms.Mark()
			if err := sp.Run(); err != nil {
				return engine.Report{}, err
			}
			return ms.ReportSince(mark, "mmm-serial", core0), nil
		})
	if err != nil {
		return nil, err
	}
	return &Result{
		Label:      mc.Label,
		Kernel:     "mmm",
		Cluster:    cfg.Name,
		CoresUsed:  cluster.NumCores(),
		Parallel:   par,
		SerialWall: ser.Wall,
		SerialIPC:  ser.IPC(),
	}, nil
}

// CholConfig names one Fig. 8c / Fig. 9 Cholesky experiment.
type CholConfig struct {
	Label    string
	Size     int // 4 (replicated) or 32 (mirrored pairs)
	PerRound int // replicated mode: decompositions per barrier
	Pairs    int // pair mode: number of mirrored pairs
}

// PaperCholConfigs returns the paper's three Cholesky configurations.
func PaperCholConfigs(cfg *arch.Config) []CholConfig {
	cores := cfg.NumCores()
	return []CholConfig{
		{Label: fmt.Sprintf("4x%d Chol 4x4", cores), Size: 4, PerRound: 4},
		{Label: fmt.Sprintf("16x%d Chol 4x4", cores), Size: 4, PerRound: 16},
		{Label: fmt.Sprintf("2x%d Chol 32x32", cores/8), Size: 32, Pairs: cores / 8},
	}
}

// testGramian builds a well-conditioned packed Gramian.
func testGramian(rng *rand.Rand, n int) []fixed.C15 {
	nb := 2 * n
	h := make([]fixed.C15, nb*n)
	for i := range h {
		h[i] = fixed.Pack(
			int16(float64(rng.IntN(1<<16)-1<<15)*0.6),
			int16(float64(rng.IntN(1<<16)-1<<15)*0.6),
		)
	}
	shift := uint(1)
	for 1<<shift < nb {
		shift++
	}
	return phy.Gramian(h, nb, n, shift+1, fixed.FloatToQ15(0.05))
}

// RunChol measures one Cholesky configuration: warm parallel pass plus a
// scaled serial baseline, run side by side.
func RunChol(cfg *arch.Config, cc CholConfig) (*Result, error) {
	rng := rand.New(rand.NewPCG(uint64(cc.Size), uint64(cc.PerRound+cc.Pairs)))
	var mach *engine.Machine
	var name string
	var jobs []engine.Job
	var coresUsed, totalDecs int
	switch {
	case cc.Pairs > 0:
		need := 2 * cc.Pairs * (2*cc.Size*cc.Size + cc.Size*cc.Size)
		mach = engine.NewMachine(deepen(cfg, need))
		pl, err := chol.NewPairPlan(mach, cc.Size, cc.Pairs)
		if err != nil {
			return nil, err
		}
		for pr := 0; pr < cc.Pairs; pr++ {
			for q := 0; q < 2; q++ {
				if err := pl.WriteG(pr, q, testGramian(rng, cc.Size)); err != nil {
					return nil, err
				}
			}
		}
		name, jobs = "chol-pair", pl.JobsList()
		coresUsed = cc.Pairs * pl.Lanes
		totalDecs = 2 * cc.Pairs
	default:
		cores := cfg.NumCores()
		need := 2 * cores * cc.PerRound * cc.Size * cc.Size
		mach = engine.NewMachine(deepen(cfg, need))
		pl, err := chol.NewReplicatedPlan(mach, cc.Size, cores, 1, cc.PerRound)
		if err != nil {
			return nil, err
		}
		for lane := 0; lane < cores; lane++ {
			for rep := 0; rep < cc.PerRound; rep++ {
				if err := pl.WriteG(lane, rep, testGramian(rng, cc.Size)); err != nil {
					return nil, err
				}
			}
		}
		name, jobs = "chol-rep", pl.JobsList()
		coresUsed = cores
		totalDecs = cores * cc.PerRound
	}

	// Serial baseline: a small batch, scaled to the total decomposition
	// count.
	const serialBatch = 8
	serialIn := make([][]fixed.C15, serialBatch)
	for rep := range serialIn {
		serialIn[rep] = testGramian(rng, cc.Size)
	}
	par, ser, err := withSerial(
		func() (engine.Report, error) { return mach.RunWarm(name, nil, jobs...) },
		func() (engine.Report, error) {
			ms := engine.NewMachine(cfg)
			sp, err := chol.NewSerialPlan(ms, 0, cc.Size, serialBatch)
			if err != nil {
				return engine.Report{}, err
			}
			for rep, g := range serialIn {
				if err := sp.WriteG(rep, g); err != nil {
					return engine.Report{}, err
				}
			}
			return ms.RunWarm("chol-serial", core0, sp.Job())
		})
	if err != nil {
		return nil, err
	}
	return &Result{
		Label:      cc.Label,
		Kernel:     "chol",
		Cluster:    cfg.Name,
		CoresUsed:  coresUsed,
		Parallel:   par,
		SerialWall: ser.Wall * int64(totalDecs) / serialBatch,
		SerialIPC:  ser.IPC(),
	}, nil
}

// RunMMMWindow measures the Section V-B register-blocking ablation: the
// 128x128x128 product with output window idx 0 (4x4), 1 (4x2) or 2 (2x2),
// against the same serial baseline shape.
func RunMMMWindow(cfg *arch.Config, idx int) (*Result, error) {
	windows := []mmm.Window{mmm.Win4x4, mmm.Win4x2, mmm.Win2x2}
	if idx < 0 || idx >= len(windows) {
		return nil, fmt.Errorf("bench: window index %d out of range", idx)
	}
	w := windows[idx]
	rng := rand.New(rand.NewPCG(77, uint64(idx)))
	const m, n, p = 128, 128, 128
	mach := engine.NewMachine(cfg)
	pl, err := mmm.NewPlan(mach, m, n, p, cfg.NumCores(), mmm.Options{Window: w})
	if err != nil {
		return nil, err
	}
	if err := pl.WriteA(randC15(rng, m*n)); err != nil {
		return nil, err
	}
	if err := pl.WriteB(randC15(rng, n*p)); err != nil {
		return nil, err
	}
	par, err := mach.RunWarm("mmm-window", nil, pl.Job())
	if err != nil {
		return nil, err
	}
	return &Result{
		Label:      fmt.Sprintf("%dx%d window", w.Rows, w.Cols),
		Kernel:     "mmm",
		Cluster:    cfg.Name,
		CoresUsed:  cfg.NumCores(),
		Parallel:   par,
		SerialWall: par.Wall, // ablation compares parallel variants only
		SerialIPC:  0,
	}, nil
}
