package pusch

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/kernels/chol"
	"repro/internal/kernels/fft"
	"repro/internal/kernels/mimo"
	"repro/internal/kernels/mmm"
	"repro/internal/report"
)

// UseCaseConfig parameterizes the Fig. 9c experiment: the Section II
// reference slot (14 symbols, 64 antennas, 32 beams, 4 UEs, 4096-point
// FFT) mapped onto one cluster. Each kernel pass is timed as a warm pass
// (engine.Machine.RunWarm: instruction caches hold what a cold pass
// leaves) and scaled by its per-slot repetition count, exactly how the
// figure composes its cycle budget.
type UseCaseConfig struct {
	Cluster      *arch.Config
	Symbols      int // OFDM symbols per slot (14)
	DataSymbols  int // data symbols carrying MIMO detection (12)
	NFFT         int // FFT size / subcarriers per decomposition set (4096)
	NR           int // antennas (64)
	NB           int // beams (32)
	NL           int // UEs (4)
	CholPerRound int // decompositions per core between barriers (4 green, 16 red)
	// FullMIMO times the complete MIMO stage (Gramian, Cholesky, matched
	// filter, triangular solves) per data symbol instead of the bare
	// decompositions the figure's label names, to test the hypothesis
	// that the paper's use-case bar includes the surrounding work.
	FullMIMO   bool
	WithSerial bool // also measure the serial single-core baseline (slow)
	DeepBanks  int  // multiply bank depth by this factor (0/1 = physical); lets
	// clusters smaller than the working set (MemPool at this scale) run the
	// experiment, trading capacity realism for the same timing structure
}

// KernelTiming is one kernel's contribution to the slot budget.
type KernelTiming struct {
	Name     string
	PerPass  int64 // wall cycles of one measured pass
	Passes   int   // repetitions per slot
	Total    int64
	IPC      float64
	MACsPerC float64
}

// UseCaseResult is the Fig. 9c reproduction output.
type UseCaseResult struct {
	FFT  KernelTiming
	MMM  KernelTiming
	Chol KernelTiming

	TotalCycles int64
	TimeMs      float64 // at 1 GHz

	SerialCycles int64   // only when WithSerial
	Speedup      float64 // only when WithSerial
}

// Shares returns each kernel's fraction of the slot cycles (the Fig. 9c
// percentages).
func (r *UseCaseResult) Shares() map[string]float64 {
	t := float64(r.TotalCycles)
	if t == 0 {
		return nil
	}
	return map[string]float64{
		"fft":  float64(r.FFT.Total) / t,
		"mmm":  float64(r.MMM.Total) / t,
		"chol": float64(r.Chol.Total) / t,
	}
}

// Record converts the result into its typed telemetry record. The
// throughput figure assumes 16-QAM payload (the operating point of the
// TeraPool SDR follow-up) over the allocated share of the FFT: the
// paper's reference slot allocates 3276 of the 4096 bins, and scaled
// configurations keep that ratio.
func (r *UseCaseResult) Record(cfg UseCaseConfig) report.SlotRecord {
	const bitsPerSymbol = 4 // 16-QAM
	dims := UseCaseDims(cfg.NL)
	dims.NSC = cfg.NFFT * dims.NSC / 4096
	dims.NSymb, dims.NPilot = cfg.Symbols, cfg.Symbols-cfg.DataSymbols
	bits := dims.PayloadBits(bitsPerSymbol)
	shares := r.Shares()
	phase := func(k KernelTiming, share float64) report.SlotPhase {
		return report.SlotPhase{
			Name:         k.Name,
			PerPass:      k.PerPass,
			Passes:       k.Passes,
			Cycles:       k.Total,
			Share:        share,
			IPC:          k.IPC,
			MACsPerCycle: k.MACsPerC,
		}
	}
	return report.SlotRecord{
		Kind:         "usecase",
		Cluster:      cfg.Cluster.Name,
		Cores:        cfg.Cluster.NumCores(),
		UEs:          cfg.NL,
		Scheme:       "16qam",
		CholPerRound: cfg.CholPerRound,
		Phases: []report.SlotPhase{
			phase(r.FFT, shares["fft"]),
			phase(r.MMM, shares["mmm"]),
			phase(r.Chol, shares["chol"]),
		},
		TotalCycles:    r.TotalCycles,
		TimeMs:         r.TimeMs,
		PayloadBits:    bits,
		ThroughputGbps: report.Gbps(bits, r.TotalCycles),
		SerialCycles:   r.SerialCycles,
		Speedup:        r.Speedup,
	}
}

// DefaultUseCase returns the paper's TeraPool use-case with the improved
// (red, 16-per-barrier) Cholesky schedule.
func DefaultUseCase() UseCaseConfig {
	return UseCaseConfig{
		Cluster:      arch.TeraPool(),
		Symbols:      14,
		DataSymbols:  12,
		NFFT:         4096,
		NR:           64,
		NB:           32,
		NL:           4,
		CholPerRound: 16,
	}
}

func (c *UseCaseConfig) validate() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	switch {
	case c.Symbols <= 0 || c.DataSymbols <= 0 || c.DataSymbols > c.Symbols:
		return fmt.Errorf("pusch: use case symbols %d/%d invalid", c.Symbols, c.DataSymbols)
	case c.NFFT < 16:
		return fmt.Errorf("pusch: NFFT %d too small", c.NFFT)
	case c.NR <= 0 || c.NB <= 0 || c.NL <= 0 || c.NL > 4:
		return fmt.Errorf("pusch: antenna/beam/UE dims invalid")
	case c.CholPerRound <= 0:
		return fmt.Errorf("pusch: CholPerRound must be positive")
	}
	return nil
}

// clusterFor applies the optional deep-bank capacity extension.
func (c *UseCaseConfig) clusterFor() *arch.Config {
	cfg := *c.Cluster
	if c.DeepBanks > 1 {
		cfg.BankWords *= c.DeepBanks
	}
	return &cfg
}

// RunUseCase executes the Fig. 9c experiment on freshly built machines.
func RunUseCase(cfg UseCaseConfig) (*UseCaseResult, error) {
	return RunUseCaseOn(nil, cfg)
}

// RunUseCaseOn executes the Fig. 9c experiment, drawing every machine it
// needs from pool (nil builds them fresh). The experiment's independent
// kernel measurements run on sequentially recycled machines, so a sweep
// over many use-case variants allocates each cluster arena once.
func RunUseCaseOn(pool *engine.Machines, cfg UseCaseConfig) (*UseCaseResult, error) {
	if pool == nil {
		pool = engine.NewMachines()
	}
	if cfg.Cluster == nil {
		def := DefaultUseCase()
		cfg.Cluster = def.Cluster
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cluster := cfg.clusterFor()
	rng := rand.New(rand.NewPCG(2023, 1203))

	// ---- Machine A: FFT chained into the beamforming MMM ----
	// One machine is checked out at a time and recycled between the
	// independent measurements; the deferred Put keeps it pooled on
	// every early error return too.
	mA := pool.Get(cluster)
	cur := mA
	defer func() {
		if cur != nil {
			pool.Put(cur)
		}
	}()
	lanes := cfg.NFFT / 16
	maxJobs := max(cluster.NumCores()/lanes, 1)
	batch := (cfg.NR + maxJobs - 1) / maxJobs
	for cfg.NR%batch != 0 {
		batch++
	}
	fftPlan, err := fft.NewPlan(mA, cfg.NFFT, cfg.NR, batch, fft.Folded)
	if err != nil {
		return nil, fmt.Errorf("pusch: use-case FFT: %w", err)
	}
	for j := 0; j < fftPlan.Jobs; j++ {
		for b := 0; b < fftPlan.Batch; b++ {
			if err := fftPlan.WriteInput(j, b, randSamples(rng, cfg.NFFT)); err != nil {
				return nil, err
			}
		}
	}
	fftOut := fftPlan.OutBase(0)
	bfPlan, err := mmm.NewPlan(mA, cfg.NFFT, cfg.NR, cfg.NB, cluster.NumCores(), mmm.Options{
		AExternal:   &fftOut,
		ATransposed: true,
	})
	if err != nil {
		return nil, fmt.Errorf("pusch: use-case MMM: %w", err)
	}
	if err := bfPlan.WriteB(randSamples(rng, cfg.NR*cfg.NB)); err != nil {
		return nil, err
	}

	fftRep, err := mA.RunWarm("fft", nil, fftPlan.JobsList()...)
	if err != nil {
		return nil, err
	}
	mmmRep, err := mA.RunWarm("mmm", nil, bfPlan.Job())
	if err != nil {
		return nil, err
	}
	pool.Put(mA)

	// ---- Machine B: the MIMO stage (bare Cholesky or the full kernel) ----
	mB := pool.Get(cluster)
	cur = mB
	cores := cluster.NumCores()
	perSymbol := (cfg.NFFT + cores - 1) / cores // decompositions per core per data symbol
	var cholRep engine.Report
	if cfg.FullMIMO {
		rep, err := measureFullMIMO(mB, cfg, rng)
		if err != nil {
			return nil, err
		}
		cholRep = rep
	} else {
		cholPlan, err := chol.NewReplicatedPlan(mB, cfg.NL, cores, 1, cfg.CholPerRound)
		if err != nil {
			return nil, fmt.Errorf("pusch: use-case Cholesky: %w", err)
		}
		for lane := 0; lane < cores; lane++ {
			for rep := 0; rep < cfg.CholPerRound; rep++ {
				if err := cholPlan.WriteG(lane, rep, randGramian(rng, cfg.NL)); err != nil {
					return nil, err
				}
			}
		}
		rep, err := mB.RunWarm("chol", nil, cholPlan.JobsList()...)
		if err != nil {
			return nil, err
		}
		cholRep = rep
	}
	pool.Put(mB)
	cur = nil

	res := &UseCaseResult{}
	res.FFT = KernelTiming{
		Name: "OFDM FFT", PerPass: fftRep.Wall, Passes: cfg.Symbols,
		Total: fftRep.Wall * int64(cfg.Symbols), IPC: fftRep.IPC(), MACsPerC: fftRep.MACsPerCycle(),
	}
	res.MMM = KernelTiming{
		Name: "BF MMM", PerPass: mmmRep.Wall, Passes: cfg.Symbols,
		Total: mmmRep.Wall * int64(cfg.Symbols), IPC: mmmRep.IPC(), MACsPerC: mmmRep.MACsPerCycle(),
	}
	cholPasses := (cfg.DataSymbols*perSymbol + cfg.CholPerRound - 1) / cfg.CholPerRound
	cholName := "MIMO Cholesky"
	if cfg.FullMIMO {
		// One full-MIMO pass detects every subcarrier of one data symbol.
		cholPasses = cfg.DataSymbols
		cholName = "MIMO stage"
	}
	res.Chol = KernelTiming{
		Name: cholName, PerPass: cholRep.Wall, Passes: cholPasses,
		Total: cholRep.Wall * int64(cholPasses), IPC: cholRep.IPC(), MACsPerC: cholRep.MACsPerCycle(),
	}
	res.TotalCycles = res.FFT.Total + res.MMM.Total + res.Chol.Total
	res.TimeMs = float64(res.TotalCycles) / 1e6

	if cfg.WithSerial {
		serial, err := runUseCaseSerial(pool, cfg, cluster, rng)
		if err != nil {
			return nil, err
		}
		res.SerialCycles = serial
		res.Speedup = float64(serial) / float64(res.TotalCycles)
	}
	return res, nil
}

// measureFullMIMO times one data symbol's complete MIMO stage: Gramian,
// matched filter, Cholesky and the two triangular solves per subcarrier,
// gathered from a synthetic channel-estimate grid.
func measureFullMIMO(mB *engine.Machine, cfg UseCaseConfig, rng *rand.Rand) (engine.Report, error) {
	hBase, err := mB.Mem.AllocSeq(cfg.NFFT * cfg.NB)
	if err != nil {
		return engine.Report{}, fmt.Errorf("pusch: full-MIMO h grid: %w", err)
	}
	for i, v := range randSamples(rng, cfg.NFFT*cfg.NB) {
		mB.Mem.Write(hBase+arch.Addr(i), uint32(v)&0x7fff7fff) // keep amplitudes moderate
	}
	sigmaAddr, err := mB.Mem.AllocSeq(1)
	if err != nil {
		return engine.Report{}, err
	}
	mB.Mem.Write(sigmaAddr, uint32(fixed.Pack(fixed.FloatToQ15(0.05), 0)))
	plan, err := mimo.NewPlan(mB, cfg.NFFT, cfg.NB, cfg.NL, mB.Cfg.NumCores(),
		func(sc, b int) arch.Addr { return hBase + arch.Addr(sc*cfg.NB+b) }, sigmaAddr, nil)
	if err != nil {
		return engine.Report{}, fmt.Errorf("pusch: full-MIMO plan: %w", err)
	}
	if err := plan.WriteY(randSamples(rng, cfg.NFFT*cfg.NB)); err != nil {
		return engine.Report{}, err
	}
	return mB.RunWarm("mimo", nil, plan.JobsList()...)
}

// runUseCaseSerial measures the single-core baseline of the same slot:
// one serial pass per kernel, scaled by the per-slot repetition counts.
func runUseCaseSerial(pool *engine.Machines, cfg UseCaseConfig, cluster *arch.Config, rng *rand.Rand) (int64, error) {
	// Serial FFT: one transform, scaled by antennas and symbols. As in
	// RunUseCaseOn, one machine is checked out at a time and the defer
	// covers the error returns.
	mF := pool.Get(cluster)
	cur := mF
	defer func() {
		if cur != nil {
			pool.Put(cur)
		}
	}()
	sf, err := fft.NewSerialPlan(mF, 0, cfg.NFFT, 1)
	if err != nil {
		return 0, err
	}
	if err := sf.WriteInput(randSamples(rng, cfg.NFFT)); err != nil {
		return 0, err
	}
	fftRep, err := mF.RunWarm("fft-serial", nil, sf.Job())
	if err != nil {
		return 0, err
	}
	pool.Put(mF)
	// Serial MMM: the full beamforming product once, scaled by symbols.
	mM := pool.Get(cluster)
	cur = mM
	sm, err := mmm.NewPlan(mM, cfg.NFFT, cfg.NR, cfg.NB, 1, mmm.Options{})
	if err != nil {
		return 0, err
	}
	if err := sm.WriteA(randSamples(rng, cfg.NFFT*cfg.NR)); err != nil {
		return 0, err
	}
	if err := sm.WriteB(randSamples(rng, cfg.NR*cfg.NB)); err != nil {
		return 0, err
	}
	mmmRep, err := mM.RunWarm("mmm-serial", nil, sm.Job())
	if err != nil {
		return 0, err
	}
	pool.Put(mM)
	// Serial Cholesky: a small batch, scaled to all decompositions.
	mC := pool.Get(cluster)
	cur = mC
	const serialDecs = 32
	sc, err := chol.NewSerialPlan(mC, 0, cfg.NL, serialDecs)
	if err != nil {
		return 0, err
	}
	for rep := 0; rep < serialDecs; rep++ {
		if err := sc.WriteG(rep, randGramian(rng, cfg.NL)); err != nil {
			return 0, err
		}
	}
	cholRep, err := mC.RunWarm("chol-serial", nil, sc.Job())
	if err != nil {
		return 0, err
	}
	pool.Put(mC)
	cur = nil
	total := fftRep.Wall*int64(cfg.NR*cfg.Symbols) +
		mmmRep.Wall*int64(cfg.Symbols) +
		cholRep.Wall*int64(cfg.DataSymbols*cfg.NFFT)/serialDecs
	return total, nil
}

// randSamples draws packed random samples (timing filler: values do not
// influence the cycle model, only addresses do).
func randSamples(rng *rand.Rand, n int) []fixed.C15 {
	out := make([]fixed.C15, n)
	for i := range out {
		out[i] = fixed.Pack(int16(rng.IntN(1<<16)-1<<15), int16(rng.IntN(1<<16)-1<<15))
	}
	return out
}

// randGramian builds a well-conditioned packed Gramian for the Cholesky
// passes.
func randGramian(rng *rand.Rand, n int) []fixed.C15 {
	nb := 2 * n
	h := randSamples(rng, nb*n)
	for i, v := range h {
		// Scale to ~0.6 amplitude to stay comfortably positive definite.
		h[i] = fixed.Pack(int16(float64(v.Re())*0.6), int16(float64(v.Im())*0.6))
	}
	shift := uint(1)
	for 1<<shift < nb {
		shift++
	}
	g := make([]fixed.C15, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc fixed.Acc
			for b := 0; b < nb; b++ {
				acc = fixed.MacConjInto(acc, h[b*n+j], h[b*n+i])
			}
			v := acc.Narrow(shift + 1)
			if i == j {
				v = fixed.Add(v, fixed.Pack(fixed.FloatToQ15(0.05), 0))
			}
			g[i*n+j] = v
		}
	}
	return g
}
