package pusch

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/kernels/chest"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/waveform"
)

// ChainConfig describes one end-to-end functional run of the receive
// chain on the simulator: UE transmitters, a multipath MIMO channel and
// AWGN feed the full kernel pipeline, and the detected bits are compared
// with the transmitted ones.
type ChainConfig struct {
	Cluster *arch.Config

	NSC    int // subcarriers = FFT size (power of four)
	NR     int // receive antennas (multiple of 4)
	NB     int // beams (multiple of 4, <= NR)
	NL     int // UEs (<= 4)
	NSymb  int // OFDM symbols per slot
	NPilot int // pilot symbols (must be 2: the noise estimate differences them)

	Scheme   waveform.Scheme
	SNRdB    float64
	DataAmp  float64 // per-subcarrier data amplitude (default 0.25)
	PilotAmp float64 // pilot amplitude (default 0.5)
	Taps     int     // iid channel taps (default 4)
	Seed     uint64
	// Channel selects the fading model (internal/channel). The zero
	// value is the legacy iid draw — Taps equal-power Rayleigh taps drawn
	// fresh from Seed each slot, bit-identical to the pre-subsystem
	// behaviour. A non-legacy spec (TDL profile, Doppler, Rician K or a
	// pinned fading seed) evolves a per-UE link state on the channel time
	// axis instead.
	Channel channel.Spec
	// InterpolateChannel enables linear comb interpolation in the MIMO
	// stage (better tracking of frequency-selective channels at the cost
	// of extra loads and multiplies per gathered element).
	InterpolateChannel bool
	// Layout maps the chain stages onto core partitions. The zero value
	// is the sequential layout — every stage spans the whole cluster,
	// symbols run one at a time — and is cycle-identical to the
	// pre-layout chain. A pipelined layout executes the stages
	// concurrently on disjoint partitions with consecutive OFDM symbols
	// overlapped (see Layout).
	Layout Layout
	// Timing selects how the slot's cycle counts are produced: the
	// zero value runs the cycle-level engine, TimingAnalytic evaluates
	// the calibrated closed-form model (internal/timing) instead. The
	// engine entry points reject analytic configurations — resolving
	// the mode is campaign.Resolve's job, which routes analytic slots
	// to the model and everything else here.
	Timing TimingMode
}

// ChainResult summarizes a chain run.
type ChainResult struct {
	BER      float64
	EVMdB    float64
	SigmaEst float64

	TotalCycles int64
	TimeMs      float64 // at the paper's nominal 1 GHz clock

	// Stage reports aggregate cycles and stalls per chain stage across
	// all symbols.
	Stages map[Stage]engine.Report
}

// Record converts the result into its typed telemetry record: one
// SlotPhase per chain stage in processing order, plus the payload
// throughput the run's dimensions and modulation scheme sustain at the
// nominal 1 GHz clock.
func (r *ChainResult) Record(cfg ChainConfig) report.SlotRecord {
	cfg.setDefaults()
	dims := Dims{NSC: cfg.NSC, NSymb: cfg.NSymb, NPilot: cfg.NPilot, NR: cfg.NR, NB: cfg.NB, NL: cfg.NL}
	bits := dims.PayloadBits(cfg.Scheme.BitsPerSymbol())
	var phases []report.SlotPhase
	for _, st := range Stages {
		rep, ok := r.Stages[st]
		if !ok {
			continue
		}
		var share float64
		if r.TotalCycles > 0 {
			share = float64(rep.Wall) / float64(r.TotalCycles)
		}
		phases = append(phases, report.SlotPhase{
			Name:         string(st),
			PerPass:      rep.Wall,
			Passes:       1,
			Cycles:       rep.Wall,
			Share:        share,
			IPC:          rep.IPC(),
			MACsPerCycle: rep.MACsPerCycle(),
		})
	}
	rec := report.SlotRecord{
		Kind:           "chain",
		Cluster:        cfg.Cluster.Name,
		Cores:          cfg.Cluster.NumCores(),
		UEs:            cfg.NL,
		Scheme:         cfg.Scheme.Name(),
		Phases:         phases,
		TotalCycles:    r.TotalCycles,
		TimeMs:         r.TimeMs,
		PayloadBits:    bits,
		ThroughputGbps: report.Gbps(bits, r.TotalCycles),
		BER:            r.BER,
		EVMdB:          r.EVMdB,
		SigmaEst:       r.SigmaEst,
	}
	if !cfg.Channel.Legacy() {
		// Channel coordinates: which fading realization this slot saw.
		// Legacy runs omit them, keeping the pre-subsystem wire bytes.
		rec.Channel = string(cfg.Channel.EffectiveProfile())
		rec.DopplerHz = cfg.Channel.DopplerHz
		rec.RicianK = cfg.Channel.RicianK
		rec.ChannelSeed = cfg.Channel.Seed
		rec.ChannelTimeMs = cfg.Channel.TimeMs
	}
	if cfg.Layout.Pipelined() {
		// Layout coordinate: which core partitioning executed the slot.
		// Sequential runs omit it, keeping the pre-layout wire bytes.
		rec.Layout = cfg.Layout.String()
	}
	return rec
}

func (c *ChainConfig) setDefaults() {
	if c.Cluster == nil {
		c.Cluster = arch.MemPool()
	}
	if c.DataAmp == 0 {
		c.DataAmp = 0.25
	}
	if c.PilotAmp == 0 {
		c.PilotAmp = 0.5
	}
	if c.Taps == 0 {
		c.Taps = 4
	}
}

// validate rejects configurations the kernels cannot schedule, starting
// with the cluster: a broken one is reported as its own error before
// anything builds a machine for it.
func (c *ChainConfig) validate() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	switch {
	case c.NSC < 64 || c.NSC&(c.NSC-1) != 0 || c.NSC&0x55555555 == 0:
		return fmt.Errorf("pusch: NSC %d must be a power of 4 >= 64", c.NSC)
	case c.Taps < 0 || c.Taps > c.NSC/4:
		// NSC/4 is the lag cap slotChannel puts on fading taps.
		return fmt.Errorf("pusch: Taps %d must be in 0..%d (NSC/4)", c.Taps, c.NSC/4)
	case c.NR%4 != 0 || c.NR <= 0:
		return fmt.Errorf("pusch: NR %d must be a positive multiple of 4", c.NR)
	case c.NR > c.Cluster.MemWords()/c.NSC:
		// The FFT input alone holds NR x NSC words of L1; dividing keeps
		// the bound from overflowing.
		return fmt.Errorf("pusch: NR %d x NSC %d words exceed the %d-word L1 of %s", c.NR, c.NSC, c.Cluster.MemWords(), c.Cluster.Name)
	case c.NB%4 != 0 || c.NB <= 0 || c.NB > c.NR:
		return fmt.Errorf("pusch: NB %d must be a positive multiple of 4, <= NR", c.NB)
	case c.NL <= 0 || c.NL > 4:
		return fmt.Errorf("pusch: NL %d must be in 1..4", c.NL)
	case c.NSC%c.NL != 0:
		return fmt.Errorf("pusch: NSC %d must be a multiple of NL %d", c.NSC, c.NL)
	case c.NPilot != 2:
		return fmt.Errorf("pusch: NPilot must be 2 (differential noise estimation), got %d", c.NPilot)
	case c.NSymb <= c.NPilot:
		return fmt.Errorf("pusch: NSymb %d must exceed NPilot %d", c.NSymb, c.NPilot)
	case c.NSymb > 14:
		return fmt.Errorf("pusch: NSymb %d exceeds the 14 symbols of one NR slot", c.NSymb)
	case c.Scheme < waveform.QPSK || c.Scheme > waveform.QAM64:
		return fmt.Errorf("pusch: unknown Scheme %d", int(c.Scheme))
	case c.Timing != TimingCycleAccurate && c.Timing != TimingAnalytic:
		return fmt.Errorf("pusch: unknown timing mode %q", c.Timing)
	case !finite(c.SNRdB) || !finite(c.DataAmp) || !finite(c.PilotAmp):
		return fmt.Errorf("pusch: SNRdB %g, DataAmp %g and PilotAmp %g must be finite", c.SNRdB, c.DataAmp, c.PilotAmp)
	}
	if err := c.Channel.Validate(); err != nil {
		return fmt.Errorf("pusch: %w", err)
	}
	lanes := c.NSC / 16
	if lanes > c.Cluster.NumCores() {
		return fmt.Errorf("pusch: one %d-point FFT needs %d lanes, cluster has %d cores", c.NSC, lanes, c.Cluster.NumCores())
	}
	return c.Layout.validate(c.Cluster, c.NSC)
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// fftBatchOn chooses how many FFTs share a lane set so all NR
// transforms fit on a partition of the given size.
func (c *ChainConfig) fftBatchOn(cores int) (batch int, err error) {
	lanes := c.NSC / 16
	maxJobs := cores / lanes
	if maxJobs == 0 {
		return 0, fmt.Errorf("pusch: FFT lanes exceed core count")
	}
	batch = (c.NR + maxJobs - 1) / maxJobs
	for c.NR%batch != 0 {
		batch++
	}
	return batch, nil
}

// RunChain executes the full receive chain on a freshly built machine
// and reports link quality plus per-stage timing. It composes the three
// chain stages — SlotTX (transmit side), Pipeline (receive kernels) and
// ScoreSlot (link metrics) — which are also callable individually.
func RunChain(cfg ChainConfig) (*ChainResult, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return RunChainOn(engine.NewMachine(cfg.Cluster), cfg)
}

// RunChainOn executes the full receive chain on a caller-supplied
// machine, which must be fresh or Reset and built for cfg.Cluster (a nil
// cfg.Cluster adopts the machine's own configuration). Sweeps use it to
// reuse one pooled Machine — and its multi-MiB TCDM arena — across many
// scenario runs; a reused machine reproduces a fresh machine's cycle
// counts exactly. The slot's transmit side runs on a helper goroutine
// beside planning and the engine; RunChainOn returns once it has
// finished.
func RunChainOn(m *engine.Machine, cfg ChainConfig) (*ChainResult, error) {
	return runChainOn(m, cfg, nil)
}

// RunChainTraced executes the chain on a freshly built machine with span
// tracing: every chain stage window and every engine phase lands in tr
// as a virtual-time span. Tracing is observation only — the result (and
// its record) is byte-identical to an untraced run.
func RunChainTraced(cfg ChainConfig, tr *obs.Trace) (*ChainResult, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return RunChainTracedOn(engine.NewMachine(cfg.Cluster), cfg, tr)
}

// RunChainTracedOn is RunChainTraced on a caller-supplied (fresh or
// Reset) machine. The run attaches its own engine.Tracer for the
// duration and restores the machine's previous tracer afterwards; a nil
// tr degrades to exactly RunChainOn.
func RunChainTracedOn(m *engine.Machine, cfg ChainConfig, tr *obs.Trace) (*ChainResult, error) {
	return runChainOn(m, cfg, tr)
}

// runChainOn composes the three chain stages. The transmit side runs
// on a helper goroutine (goSlotTX) while this one plans the kernels and
// runs the engine, and RunSymbol(s) waits only for symbol s's samples.
// Only TX draws from the slot's rng, in its serial order, so the
// overlap moves no bit, noise sample or cycle.
func runChainOn(m *engine.Machine, cfg ChainConfig, tr *obs.Trace) (res *ChainResult, err error) {
	if cfg.Cluster == nil {
		cfg.Cluster = m.Cfg
	}
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Timing == TimingAnalytic {
		// The engine only ever produces cycle-accurate records; analytic
		// slots are resolved by the calibrated model (internal/timing) in
		// the orchestration layers. Rejecting them here makes an analytic
		// record that secretly ran the engine — or an engine record
		// stamped analytic — impossible by construction.
		return nil, fmt.Errorf("pusch: analytic timing is resolved by the calibrated model (internal/timing), not the engine")
	}
	if tr != nil {
		// Attach a private engine tracer for the run; the machine pool
		// scrubs tracers on Get, so traced runs own their attachment.
		prev := m.Tracer
		m.Tracer = &engine.Tracer{}
		defer func() { m.Tracer = prev }()
	}
	txr := goSlotTX(cfg)
	// Every way out — a return, an error or an unwinding panic — waits
	// for the helper first. TX ran before planning in the serial chain,
	// so its error replaces this goroutine's, and its panic is re-raised.
	defer func() {
		if _, txErr := txr.wait(); txErr != nil {
			res, err = nil, txErr
		}
	}()
	start := m.Cycles()
	pl, err := NewPipeline(m, cfg)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// Host-side work carries no simulated cycles: an instant marker,
		// at the slot's start and ahead of every stage span.
		tr.Add("host", "slot-tx", start, start)
	}
	pl.trace = tr
	for s := range cfg.NSymb {
		rx, ok := <-txr.rows
		if !ok {
			break // TX failed; wait reports how
		}
		if err := pl.RunSymbol(s, rx); err != nil {
			return nil, err
		}
	}
	tx, err := txr.wait()
	if err != nil {
		return nil, err
	}
	if err := pl.Drain(); err != nil {
		return nil, err
	}
	lm, err := ScoreSlot(&cfg, tx, pl.Detected())
	if err != nil {
		return nil, err
	}
	if tr != nil {
		obs.AppendMachineSpans(tr, m.Tracer.Events)
		c := m.Cycles()
		tr.Add("host", "score", c, c)
	}
	return &ChainResult{
		BER:         lm.BER,
		EVMdB:       lm.EVMdB,
		SigmaEst:    pl.Sigma(),
		TotalCycles: pl.Cycles(),
		TimeMs:      float64(pl.Cycles()) / 1e6, // 1 GHz -> 1e6 cycles per ms
		Stages:      pl.Stages(),
	}, nil
}

// txRun is a slot's transmit side running on a helper goroutine: the
// code of NewSlotTX, handing each symbol's received samples over as
// soon as they are complete.
type txRun struct {
	cfg ChainConfig // the helper's own copy
	// rows carries symbol s's RxTime as its s-th value and is closed
	// when the helper returns. It holds all NSymb values, so no send
	// blocks and the helper always finishes.
	rows chan [][]complex128

	// The helper's outcome, written before rows is closed.
	tx       *SlotTX
	err      error
	panicked any
}

// goSlotTX starts the transmit side of the slot cfg describes on a
// helper goroutine. The caller must wait for it.
func goSlotTX(cfg ChainConfig) *txRun {
	h := &txRun{cfg: cfg, rows: make(chan [][]complex128, cfg.NSymb)}
	go h.run()
	return h
}

// run is the helper goroutine. The slot's rng is its own: nothing else
// draws from it, so bits and noise come out as in the serial chain.
func (h *txRun) run() {
	defer close(h.rows)
	defer func() { h.panicked = recover() }()
	seed := h.cfg.Seed
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	h.tx, h.err = newSlotTX(&h.cfg, rng, h.rows)
}

// wait returns the helper's result once it has returned, discarding
// any symbols not yet received. The first wait re-raises a panic on the
// helper here, on the caller's goroutine; a later one, deferred while
// that panic unwinds, returns.
func (h *txRun) wait() (*SlotTX, error) {
	for range h.rows {
	}
	if p := h.panicked; p != nil {
		h.panicked = nil
		panic(p)
	}
	return h.tx, h.err
}

// RunChainRecordOn executes the chain on a caller-supplied (fresh or
// Reset) machine and returns the typed telemetry record instead of the
// raw result, for callers that hold their own machine. Campaigns and
// the scheduler measure through campaign.Resolve instead.
func RunChainRecordOn(m *engine.Machine, cfg ChainConfig) (report.SlotRecord, error) {
	if cfg.Cluster == nil {
		cfg.Cluster = m.Cfg
	}
	res, err := RunChainOn(m, cfg)
	if err != nil {
		return report.SlotRecord{}, err
	}
	return res.Record(cfg), nil
}

// combinePlan averages the two pilot-symbol channel estimates and
// derives the noise variance from their difference: with a static
// channel, h1 - h2 is pure noise, so sigma^2 = E|h1-h2|^2 / 2. This is
// the NE stage realization for the block-type pilot arrangement.
type combinePlan struct {
	nsc, nb int
	m       *engine.Machine
	h1, h2  *chest.Plan
	hAvg    arch.Addr
	parts   arch.Addr
	sigma   arch.Addr
	cores   []int
	shift   uint
	gain    uint // noise-floor AGC: sigma word holds sigma^2 * 2^gain

	job engine.Job // built by the first Job call
}

// newCombinePlan lays the combine job out on the given core set.
func newCombinePlan(m *engine.Machine, h1, h2 *chest.Plan, coreSet []int) (*combinePlan, error) {
	if h1.NSC != h2.NSC || h1.NB != h2.NB {
		return nil, fmt.Errorf("pusch: mismatched chest plans")
	}
	c := &combinePlan{nsc: h1.NSC, nb: h1.NB, m: m, h1: h1, h2: h2}
	var err error
	if c.hAvg, err = m.Mem.AllocSeq(c.nsc * c.nb); err != nil {
		return nil, fmt.Errorf("pusch: combine hAvg: %w", err)
	}
	cores := len(coreSet)
	if c.parts, err = m.Mem.AllocSeq(cores); err != nil {
		return nil, fmt.Errorf("pusch: combine partials: %w", err)
	}
	if c.sigma, err = m.Mem.AllocSeq(1); err != nil {
		return nil, fmt.Errorf("pusch: combine sigma: %w", err)
	}
	c.cores = append([]int(nil), coreSet...)
	perLane := (c.nsc + cores - 1) / cores * c.nb
	for 1<<c.shift < perLane {
		c.shift++
	}
	// The squared noise floor of a high-SNR link underflows Q1.15, so
	// the stored word carries sigma^2 * 2^gain; Sigma undoes the gain
	// and downstream regularization tolerates the scale (slight extra
	// shrinkage at very high SNR, invisible at operating points).
	c.gain = 8
	if c.gain > c.shift {
		c.gain = c.shift
	}
	return c, nil
}

// HAddr addresses the averaged channel estimate like chest.Plan.HAddr.
func (c *combinePlan) HAddr(sc, b int) arch.Addr {
	return c.hAvg + arch.Addr(sc*c.nb+b)
}

// SigmaAddr exposes the combined noise-variance word.
func (c *combinePlan) SigmaAddr() arch.Addr { return c.sigma }

// Sigma reads the noise variance as a float, removing the AGC gain.
func (c *combinePlan) Sigma() float64 {
	return fixed.Q15ToFloat(fixed.C15(c.m.Mem.Read(c.sigma)).Re()) / float64(int64(1)<<c.gain)
}

// Job returns the combine job: the per-subcarrier average plus noise
// accumulation, then the lane-0 reduction into the sigma word. It is
// built on the first call and shared by every later one.
func (c *combinePlan) Job() engine.Job {
	if c.job.Phases != nil {
		return c.job
	}
	lanes := len(c.cores)
	combineWork := func(p *engine.Proc) {
		per := (c.nsc + lanes - 1) / lanes
		lo := p.Lane * per
		hi := min(lo+per, c.nsc)
		var acc engine.A
		for sc := lo; sc < hi; sc++ {
			for b := 0; b < c.nb; b++ {
				w1 := p.Load(c.h1.HAddr(sc, b))
				w2 := p.Load(c.h2.HAddr(sc, b))
				avg := p.CHalf(p.CAdd(w1, w2))
				p.Store(c.HAddr(sc, b), avg)
				d := p.CSub(w1, w2)
				acc = p.MacAbs2(acc, d)
				p.Tick(1)
			}
			p.Tick(1)
		}
		p.Store(c.parts+arch.Addr(p.Lane), p.Narrow(acc, c.shift-c.gain))
	}
	reduceWork := func(p *engine.Proc) {
		if p.Lane != 0 {
			return
		}
		one := p.Imm(fixed.Pack(fixed.MaxQ15, 0))
		var acc engine.A
		for l := 0; l < lanes; l++ {
			w := p.Load(c.parts + arch.Addr(l))
			acc = p.Mac(acc, w, one)
			p.Tick(1)
		}
		var shift uint
		for 1<<shift < lanes {
			shift++
		}
		// Divide by two: E|h1-h2|^2 = 2 sigma_h^2.
		sigma := p.CHalf(p.Narrow(acc, shift))
		p.Store(c.sigma, sigma)
	}
	c.job = engine.Job{
		Name:  "ne-combine",
		Cores: c.cores,
		Phases: []engine.Phase{
			{Name: "combine", Kernel: "ne/combine", Lines: 8, Work: combineWork},
			{Name: "reduce", Kernel: "ne/reduce", Lines: 4, Work: reduceWork},
		},
	}
	return c.job
}
