package pusch

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/kernels/chest"
	"repro/internal/kernels/fft"
	"repro/internal/kernels/mimo"
	"repro/internal/kernels/mmm"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// Pipeline is the receive-side kernel stage of the functional chain: all
// kernel plans of one slot laid out on one machine. It is the second of
// the three separately callable chain stages (SlotTX, Pipeline, link
// metrics); RunChainOn composes them, and the campaign runner drives a
// Pipeline per scenario on a pooled, Reset machine.
//
// Both layouts are planned alike: the sequential layout (the zero value)
// is five all-core partitions with one plan set, a pipelined layout its
// own partitions with two. Execution follows the configured Layout. The
// sequential layout runs the stages back to back, one OFDM symbol at a
// time, with a cluster-wide barrier between stages — the original
// chain. A pipelined layout instead overlaps consecutive symbols on its
// partitions: per beat, Machine.Run receives the FFT of symbol k, the
// beamforming of symbol k-1 and the detection of symbol k-2 as
// concurrent jobs on disjoint core sets. The inter-stage buffers (FFT
// output and beamformed grid) are double-buffered by symbol parity, and
// partitions hand results downstream through NotBefore timestamps — the
// per-partition handshake replacing the cluster-wide barrier.
type Pipeline struct {
	cfg   ChainConfig
	m     *engine.Machine
	batch int

	// lay holds every stage's partition: cfg.Layout, or all cores for
	// each stage of the sequential layout.
	lay Layout
	// bufs counts the plan sets: 1 sequential, 2 pipelined (double
	// buffered, symbol s uses set s%bufs).
	bufs      int
	fftPlans  [2]*fft.Plan
	bfPlans   [2]*mmm.Plan
	mimoPlans [2]*mimo.Plan

	// chestPlans holds one plan per pilot symbol; plan i reads the beam
	// grid of set i%bufs.
	chestPlans []*chest.Plan
	comb       *combinePlan

	// Software-pipeline state: per-symbol finish times of each
	// partition's task, driving the NotBefore handshakes.
	finFFT  []int64
	finBF   []int64
	finDet  []int64
	finNE   int64
	issued  int // symbols fed into the pipe so far
	drained bool

	// rxq is the quantization buffer one antenna's samples pass through
	// on their way into the FFT input.
	rxq []fixed.C15

	start    int64
	detected []fixed.C15
	stages   map[Stage]engine.Report

	// mark is the one window snapshot every measured stage or beat
	// refills.
	mark engine.Mark
	// key names a sequential layout's stages in the replay memo
	// (memoKeys), which runStage tells apart by Unit. The zero key turns
	// the stage memo off.
	key engine.SyncKey

	// trace, when non-nil, receives one stage-level span per measured
	// window (RunChainTracedOn sets it). Spans are pure observations —
	// they never feed back into timing.
	trace *obs.Trace
}

// NewPipeline plans every kernel of the receive chain on m according to
// cfg.Layout. cfg must already be defaulted and validated, and m must
// have been built for cfg.Cluster.
func NewPipeline(m *engine.Machine, cfg ChainConfig) (*Pipeline, error) {
	if *m.Cfg != *cfg.Cluster {
		return nil, fmt.Errorf("pusch: pipeline machine is a %s, config wants %s", m.Cfg.Name, cfg.Cluster.Name)
	}
	pl := &Pipeline{cfg: cfg, m: m, lay: cfg.Layout, bufs: 2, stages: make(map[Stage]engine.Report), rxq: make([]fixed.C15, cfg.NSC)}
	var slot engine.SyncKey
	pl.key, slot = memoKeys(m, &cfg)
	pipelined := cfg.Layout.Pipelined()
	if pipelined {
		pl.finFFT = make([]int64, cfg.NSymb)
		pl.finBF = make([]int64, cfg.NSymb)
		pl.finDet = make([]int64, cfg.NSymb)
	} else {
		all := coreRange(0, m.Cfg.NumCores())
		pl.lay = Layout{FFT: all, BF: all, CHE: all, NE: all, MIMO: all}
		pl.bufs = 1
	}
	if err := pl.plan(); err != nil {
		return nil, err
	}
	// The slot's stages or beats, through Drain, are one memo unit: a
	// repeat on a Reset machine replays them (engine.Machine.BeginSlot).
	m.BeginSlot(slot)
	pl.start = m.Cycles()
	return pl, nil
}

// chainBeamWords returns the quantized unitary DFT beamforming matrix
// (r-major: bq[r*NB+b]), shared by both layouts' beamforming plans.
func chainBeamWords(cfg *ChainConfig) []fixed.C15 {
	w := waveform.DFTBeams(cfg.NB, cfg.NR)
	bq := make([]fixed.C15, cfg.NR*cfg.NB)
	for r := 0; r < cfg.NR; r++ {
		for b := 0; b < cfg.NB; b++ {
			bq[r*cfg.NB+b] = fixed.FromComplex(w.At(b, r))
		}
	}
	return bq
}

// chainPilotWords returns the quantized pilot sequence.
func chainPilotWords(cfg *ChainConfig) []fixed.C15 {
	pilots := chainPilots(cfg)
	pq := make([]fixed.C15, cfg.NSC)
	for sc := range pq {
		pq[sc] = fixed.FromComplex(pilots[sc])
	}
	return pq
}

// Replay-memo units of the sequential stages (engine.SyncKey.Unit);
// pilot i's channel estimation is unitCHE+i.
const (
	unitFFT = iota + 1
	unitBF
	unitNE
	unitMIMO
	unitCHE
)

// memoKeys returns the replay-memo keys of a pipeline about to be
// planned on m: stage, from which runStage keys the sequential stages,
// and slot, the key of the whole slot. stage holds the dimensions and
// options the plans are built from and the allocator position they
// start at; slot adds NSymb, which sets the slot's Runs, and a
// pipelined layout's canonical split. A coordinate re-planned with
// another NSymb thus gets another slot key but the same stage keys.
// Planning is deterministic, so equal keys lay out equal plans at equal
// addresses, on this machine or after a Reset; a pipeline planned at
// any other position never shares an entry. Both keys are zero, which
// turns the memo off, when the position has no value
// (tcdm.Mem.Position); slot is zero as well when the layout is not a
// canonical split.
func memoKeys(m *engine.Machine, cfg *ChainConfig) (stage, slot engine.SyncKey) {
	pos, ok := m.Mem.Position()
	if !ok {
		return engine.SyncKey{}, engine.SyncKey{}
	}
	interp := 0
	if cfg.InterpolateChannel {
		interp = 1
	}
	stage = engine.SyncKey{Dims: [10]int{cfg.NSC, cfg.NR, cfg.NB, cfg.NL, cfg.NPilot, interp}, Arena: pos}
	slot = stage
	slot.Dims[6] = cfg.NSymb
	if cfg.Layout.Pipelined() {
		f, b, d, ok := cfg.Layout.split()
		if !ok {
			return stage, engine.SyncKey{}
		}
		slot.Dims[7], slot.Dims[8], slot.Dims[9] = f, b, d
	}
	return stage, slot
}

// plan lays out every kernel plan on its stage's partition, in the
// TCDM allocation order of the original chain: the FFT sets, the
// beamforming sets (set p reads FFT set p's output), one channel
// estimate per pilot, the noise combine, then the MIMO sets. With two
// sets the inter-stage regions (FFT output, beamformed grid) are double
// buffered by symbol parity, so symbol k's detection reads one set
// while symbol k+1's producers fill the other.
func (pl *Pipeline) plan() error {
	m, cfg, lay := pl.m, &pl.cfg, &pl.lay
	batch, err := cfg.fftBatchOn(len(lay.FFT))
	if err != nil {
		return err
	}
	pl.batch = batch
	for p := range pl.bufs {
		if pl.fftPlans[p], err = fft.NewPlanOn(m, lay.FFT, cfg.NSC, cfg.NR, batch, fft.Folded); err != nil {
			return err
		}
	}
	bq := chainBeamWords(cfg)
	for p := range pl.bufs {
		out := pl.fftPlans[p].OutBase(0)
		pl.bfPlans[p], err = mmm.NewPlanOn(m, lay.BF, cfg.NSC, cfg.NR, cfg.NB, mmm.Options{
			AExternal:   &out,
			ATransposed: true,
			ZeroShift:   true,
		})
		if err != nil {
			return err
		}
		if err := pl.bfPlans[p].WriteB(bq); err != nil {
			return err
		}
	}
	pq := chainPilotWords(cfg)
	pl.chestPlans = make([]*chest.Plan, cfg.NPilot)
	for i := range pl.chestPlans {
		beam := pl.bfPlans[i%pl.bufs].CBase()
		p, err := chest.NewPlanOn(m, lay.CHE, cfg.NSC, cfg.NB, cfg.NL, &beam)
		if err != nil {
			return err
		}
		if err := p.WritePilots(pq); err != nil {
			return err
		}
		pl.chestPlans[i] = p
	}
	if pl.comb, err = newCombinePlan(m, pl.chestPlans[0], pl.chestPlans[1], lay.NE); err != nil {
		return err
	}
	for p := range pl.bufs {
		beam := pl.bfPlans[p].CBase()
		pl.mimoPlans[p], err = mimo.NewPlanOn(m, lay.MIMO, cfg.NSC, cfg.NB, cfg.NL,
			pl.comb.HAddr, pl.comb.SigmaAddr(), &beam)
		if err != nil {
			return err
		}
		pl.mimoPlans[p].Interp = cfg.InterpolateChannel
	}
	return nil
}

// accumulateOn folds the window since pl.mark over the stage's
// partition into the per-stage aggregate. Under a pipelined layout the
// window includes the partition's NotBefore wait, so a stage's Wall
// reads as partition occupancy and the per-stage walls of one slot
// overlap in time. When a trace is attached, the same window becomes
// one stage-level span named "<name> s<sym>" on the partition's track.
func (pl *Pipeline) accumulateOn(stage Stage, name string, cores []int, sym int) {
	rep := pl.m.ReportSince(pl.mark, name, cores)
	agg := pl.stages[stage]
	agg.Name = string(stage)
	agg.Cores = rep.Cores
	agg.Wall += rep.Wall
	agg.Stats.Add(rep.Stats)
	pl.stages[stage] = agg
	if pl.trace != nil {
		start, end := pl.m.WindowSince(pl.mark, cores)
		pl.trace.Add(pl.trackFor(cores), fmt.Sprintf("%s s%d", name, sym), start, end)
	}
}

// trackFor names the trace track of a stage's core partition.
func (pl *Pipeline) trackFor(cores []int) string {
	lo, hi := cores[0], cores[0]
	for _, c := range cores[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	return obs.CoreTrack(lo, hi)
}

// RunSymbol processes OFDM symbol s from its per-antenna time-domain
// samples (NR rows of NSC samples): FFT and beamforming on every symbol,
// then channel estimation (plus the noise-estimate combine after the
// last pilot) on pilot symbols or MIMO detection on data symbols.
// Symbols must be run in order 0..NSymb-1, and not after Drain. Under a
// pipelined layout the call feeds the symbol into the software pipeline
// (stages of up to three symbols execute concurrently on their
// partitions); call Drain after the last symbol to flush the pipe before
// reading Detected.
func (pl *Pipeline) RunSymbol(s int, rx [][]complex128) error {
	cfg := &pl.cfg
	switch {
	case s != pl.issued:
		return fmt.Errorf("pusch: RunSymbol(%d) out of order, want %d", s, pl.issued)
	case s >= cfg.NSymb:
		return fmt.Errorf("pusch: RunSymbol(%d) beyond the slot's %d symbols", s, cfg.NSymb)
	case pl.drained:
		return fmt.Errorf("pusch: RunSymbol(%d) after Drain", s)
	case len(rx) != cfg.NR:
		return fmt.Errorf("pusch: RunSymbol(%d): %d antenna rows, want %d", s, len(rx), cfg.NR)
	}
	for a, row := range rx {
		if len(row) != cfg.NSC {
			return fmt.Errorf("pusch: RunSymbol(%d): antenna %d has %d samples, want %d", s, a, len(row), cfg.NSC)
		}
	}
	// The symbol's samples go to its set's FFT input.
	plan := pl.fftPlans[s%pl.bufs]
	for a, row := range rx {
		for i, v := range row {
			pl.rxq[i] = fixed.FromComplex(v)
		}
		if err := plan.WriteInput(a/pl.batch, a%pl.batch, pl.rxq); err != nil {
			return err
		}
	}
	pl.issued = s + 1
	if cfg.Layout.Pipelined() {
		// One beat issues FFT(s), BF(s-1) and detection(s-2) concurrently.
		return pl.issueBeat(s)
	}
	return pl.runSymbolSequential(s)
}

// runSymbolSequential is the original serial schedule: every stage on
// all cores, a cluster-wide barrier after each.
func (pl *Pipeline) runSymbolSequential(s int) error {
	cfg := &pl.cfg
	if err := pl.runStage(StageOFDM, "fft", s, unitFFT, pl.fftPlans[0].JobsList()...); err != nil {
		return err
	}
	if err := pl.runStage(StageBF, "bf", s, unitBF, pl.bfPlans[0].Job()); err != nil {
		return err
	}
	if s >= cfg.NPilot {
		if err := pl.runStage(StageMIMO, "mimo", s, unitMIMO, pl.mimoPlans[0].JobsList()...); err != nil {
			return err
		}
		pl.detected = append(pl.detected, pl.mimoPlans[0].ReadX()...)
		return nil
	}
	chest := pl.chestPlans[s]
	if err := pl.runStage(StageCHE, "chest", s, unitCHE+s, chest.JobsList()...); err != nil {
		return err
	}
	if s == cfg.NPilot-1 {
		return pl.runStage(StageNE, "combine", s, unitNE, pl.comb.Job())
	}
	return nil
}

// runStage runs one sequential stage — its jobs and the closing cluster
// barrier — through engine.Machine.RunSynced under pl.key and unit, and
// folds its window into the stage's aggregate. Inside a replayed slot
// the stage replays as the slot's next Run; otherwise a stage that
// repeats from a recorded state replays from its own memo entry.
func (pl *Pipeline) runStage(stage Stage, name string, s, unit int, jobs ...engine.Job) error {
	key := pl.key
	if key != (engine.SyncKey{}) {
		key.Unit = unit
	}
	pl.m.MarkInto(&pl.mark)
	if err := pl.m.RunSynced(key, jobs...); err != nil {
		return err
	}
	pl.accumulateOn(stage, name, pl.lay.Part(stage), s)
	return nil
}

// Drain flushes the software pipeline: after the last RunSymbol, the
// beamforming of the final symbol and the detection of the final two
// are still in flight. Sequential layouts have nothing in flight. On
// either layout Drain ends the slot: RunSymbol errors after it. A slot
// that ran all its symbols is committed to the replay memo here; one
// drained early, or abandoned before Drain, commits nothing. Drain is
// idempotent; RunChainOn calls it before scoring.
func (pl *Pipeline) Drain() error {
	if pl.drained {
		return nil
	}
	pl.drained = true
	if pl.cfg.Layout.Pipelined() {
		last := pl.issued
		for beat := last; beat < last+2; beat++ {
			if err := pl.issueBeat(beat); err != nil {
				return err
			}
		}
	}
	return pl.m.EndSlot(pl.issued == pl.cfg.NSymb)
}

// issueBeat runs one pipeline beat: the up-to-three stage tasks whose
// symbols are in flight, handed to Machine.Run as concurrent jobs on
// disjoint partitions. Cross-partition data dependencies (and the WAR
// hazards on the double-buffered regions) are enforced through each
// job's NotBefore: a consumer partition starts no earlier than its
// producer finished, and a producer reclaims a parity buffer no earlier
// than the previous consumer released it.
func (pl *Pipeline) issueBeat(beat int) error {
	cfg, lay := &pl.cfg, &pl.lay
	sFFT, sBF, sDet := beat, beat-1, beat-2
	doFFT := sFFT >= 0 && sFFT < pl.issued
	doBF := sBF >= 0 && sBF < pl.issued
	doDet := sDet >= 0 && sDet < pl.issued

	var jobs []engine.Job
	if doFFT {
		var notBefore int64
		if sFFT >= 2 {
			// WAR: FFT(s) overwrites the parity output BF(s-2) read.
			notBefore = pl.finBF[sFFT-2]
		}
		for _, j := range pl.fftPlans[sFFT&1].JobsList() {
			j.NotBefore = notBefore
			jobs = append(jobs, j)
		}
	}
	if doBF {
		notBefore := pl.finFFT[sBF] // RAW: the FFT output of the same symbol
		if sBF >= 2 && pl.finDet[sBF-2] > notBefore {
			// WAR: BF(s) overwrites the parity grid detection(s-2) read.
			notBefore = pl.finDet[sBF-2]
		}
		j := pl.bfPlans[sBF&1].Job()
		j.NotBefore = notBefore
		jobs = append(jobs, j)
	}
	if doDet {
		notBefore := pl.finBF[sDet] // RAW: the beamformed grid of the same symbol
		if sDet < cfg.NPilot {
			for _, j := range pl.chestPlans[sDet].JobsList() {
				j.NotBefore = notBefore
				jobs = append(jobs, j)
			}
		} else {
			if pl.finNE > notBefore {
				notBefore = pl.finNE // RAW: averaged channel + sigma
			}
			for _, j := range pl.mimoPlans[sDet&1].JobsList() {
				j.NotBefore = notBefore
				jobs = append(jobs, j)
			}
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	pl.m.MarkInto(&pl.mark)
	if err := pl.m.Run(jobs...); err != nil {
		return err
	}
	// No cluster-wide barrier ever runs in a pipelined slot, so retire
	// the bank-reservation pages every core has moved past here, once
	// per beat, to bound simulator memory.
	pl.m.TrimReservations()
	if doFFT {
		pl.finFFT[sFFT] = pl.m.MaxTime(lay.FFT)
		pl.accumulateOn(StageOFDM, "fft", lay.FFT, sFFT)
	}
	if doBF {
		pl.finBF[sBF] = pl.m.MaxTime(lay.BF)
		pl.accumulateOn(StageBF, "bf", lay.BF, sBF)
	}
	if !doDet {
		return nil
	}
	if sDet >= cfg.NPilot {
		pl.finDet[sDet] = pl.m.MaxTime(lay.MIMO)
		pl.accumulateOn(StageMIMO, "mimo", lay.MIMO, sDet)
		pl.detected = append(pl.detected, pl.mimoPlans[sDet&1].ReadX()...)
		return nil
	}
	pl.finDet[sDet] = pl.m.MaxTime(lay.CHE)
	pl.accumulateOn(StageCHE, "chest", lay.CHE, sDet)
	if sDet == cfg.NPilot-1 {
		// Noise combine: needs both pilot estimates. On a layout where NE
		// shares the detection partition this serializes behind the chest
		// task by clock continuity; on a dedicated NE partition the
		// NotBefore handshake carries the dependency.
		pl.m.MarkInto(&pl.mark)
		j := pl.comb.Job()
		j.NotBefore = max(pl.finDet[0], pl.finDet[cfg.NPilot-1])
		if err := pl.m.Run(j); err != nil {
			return err
		}
		pl.finNE = pl.m.MaxTime(lay.NE)
		pl.accumulateOn(StageNE, "combine", lay.NE, sDet)
	}
	return nil
}

// Cycles returns the simulated cycles spent in RunSymbol calls so far.
func (pl *Pipeline) Cycles() int64 { return pl.m.Cycles() - pl.start }

// Detected returns the accumulated MIMO-detected symbols, interleaved
// [dataSymbol][subcarrier][ue] in detection order. Pipelined layouts
// must Drain first, or the last symbols are still in flight.
func (pl *Pipeline) Detected() []fixed.C15 { return pl.detected }

// Stages returns the per-stage aggregated reports. Under a pipelined
// layout the stage walls measure partition occupancy (work plus
// handshake waits) and overlap in time, so they do not sum to the slot
// total the way sequential stages do.
func (pl *Pipeline) Stages() map[Stage]engine.Report { return pl.stages }

// Sigma returns the estimated noise variance after the pilot symbols
// have been processed.
func (pl *Pipeline) Sigma() float64 { return pl.comb.Sigma() }
