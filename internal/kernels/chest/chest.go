// Package chest implements the pilot-symbol stages of the PUSCH chain:
// least-squares channel estimation (CHE, an element-wise complex division
// per beam and subcarrier) and noise-variance estimation (NE, the
// autocorrelation of the residual between the received pilots and their
// reconstruction), Section II of the paper.
//
// UEs share a pilot OFDM symbol through a frequency comb: subcarrier sc
// carries the pilot of UE sc mod NL. The kernel estimates, for every
// subcarrier, the channel column of its owning UE (NB divisions), and a
// second phase reduces the per-core residual energies into the noise
// variance. Work parallelizes over subcarriers.
package chest

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
)

// Plan holds the buffers of one pilot-symbol estimation pass.
type Plan struct {
	NSC int // subcarriers
	NB  int // beams
	NL  int // UEs (comb factor)

	Cores []int

	m         *engine.Machine
	yBase     arch.Addr // received beams, sc-major: y[sc*NB + b]
	pilotBase arch.Addr // transmitted pilot per subcarrier
	hBase     arch.Addr // estimated channel column, sc-major: h[sc*NB + b]
	partBase  arch.Addr // per-lane partial residual energies
	sigmaAddr arch.Addr // final noise variance (Q1.15 real)
	redShift  uint      // scaling of the partial-energy accumulation

	jobs []engine.Job // built by the first JobsList call
}

// NewPlanOn allocates buffers for one pilot symbol of nsc subcarriers,
// nb beams and nl UEs, processed by the given cores, so a chain layout
// can pin channel estimation to its own partition. yExternal, when
// non-nil, reuses an existing sc-major beam buffer (the beamforming
// stage's output) instead of allocating one.
func NewPlanOn(m *engine.Machine, cores []int, nsc, nb, nl int, yExternal *arch.Addr) (*Plan, error) {
	coreCount := len(cores)
	switch {
	case nsc <= 0 || nb <= 0 || nl <= 0:
		return nil, fmt.Errorf("chest: dimensions %d/%d/%d must be positive", nsc, nb, nl)
	case nl > nsc:
		return nil, fmt.Errorf("chest: comb factor %d exceeds %d subcarriers", nl, nsc)
	case coreCount <= 0 || coreCount > m.Cfg.NumCores():
		return nil, fmt.Errorf("chest: %d cores requested, cluster has %d", coreCount, m.Cfg.NumCores())
	}
	pl := &Plan{NSC: nsc, NB: nb, NL: nl, m: m}
	var err error
	if yExternal != nil {
		pl.yBase = *yExternal
	} else if pl.yBase, err = m.Mem.AllocSeq(nsc * nb); err != nil {
		return nil, fmt.Errorf("chest: y: %w", err)
	}
	if pl.pilotBase, err = m.Mem.AllocSeq(nsc); err != nil {
		return nil, fmt.Errorf("chest: pilots: %w", err)
	}
	if pl.hBase, err = m.Mem.AllocSeq(nsc * nb); err != nil {
		return nil, fmt.Errorf("chest: h: %w", err)
	}
	if pl.partBase, err = m.Mem.AllocSeq(coreCount); err != nil {
		return nil, fmt.Errorf("chest: partials: %w", err)
	}
	sig, err := m.Mem.AllocSeq(1)
	if err != nil {
		return nil, fmt.Errorf("chest: sigma: %w", err)
	}
	pl.sigmaAddr = sig
	pl.Cores = append([]int(nil), cores...)
	// Residual energies accumulate |r|^2 over a lane's share of NSC*NB
	// terms; scale so the partial mean stays inside Q1.15.
	perLane := (nsc + coreCount - 1) / coreCount * nb
	for 1<<pl.redShift < perLane {
		pl.redShift++
	}
	return pl, nil
}

// WriteY stores the received pilot-symbol beams (host write, untimed).
func (pl *Plan) WriteY(y []fixed.C15) error {
	if len(y) != pl.NSC*pl.NB {
		return fmt.Errorf("chest: WriteY: %d elements, want %d", len(y), pl.NSC*pl.NB)
	}
	for i, v := range y {
		pl.m.Mem.Write(pl.yBase+arch.Addr(i), uint32(v))
	}
	return nil
}

// WritePilots stores the per-subcarrier pilot sequence.
func (pl *Plan) WritePilots(p []fixed.C15) error {
	if len(p) != pl.NSC {
		return fmt.Errorf("chest: WritePilots: %d elements, want %d", len(p), pl.NSC)
	}
	for i, v := range p {
		pl.m.Mem.Write(pl.pilotBase+arch.Addr(i), uint32(v))
	}
	return nil
}

// ReadH returns the estimated channel columns, sc-major.
func (pl *Plan) ReadH() []fixed.C15 {
	out := make([]fixed.C15, pl.NSC*pl.NB)
	for i := range out {
		out[i] = fixed.C15(pl.m.Mem.Read(pl.hBase + arch.Addr(i)))
	}
	return out
}

// HAddr exposes the address of h[sc][b] so the MIMO stage can gather
// channel estimates through the comb.
func (pl *Plan) HAddr(sc, b int) arch.Addr {
	return pl.hBase + arch.Addr(sc*pl.NB+b)
}

// SigmaAddr exposes the noise-variance word for downstream kernels.
func (pl *Plan) SigmaAddr() arch.Addr { return pl.sigmaAddr }

// Sigma returns the estimated noise variance as a float (host read).
// The two-level fixed-point reduction is exact when NSC, NB and the core
// count are powers of two (the chain's configurations); otherwise the
// mean is underestimated by the ratio of the rounded-up lane share to the
// true one.
func (pl *Plan) Sigma() float64 {
	return fixed.Q15ToFloat(fixed.C15(pl.m.Mem.Read(pl.sigmaAddr)).Re())
}

// Owner returns the UE whose pilot occupies subcarrier sc.
func (pl *Plan) Owner(sc int) int { return sc % pl.NL }

// laneRange splits the subcarriers across lanes.
func (pl *Plan) laneRange(lane, lanes int) (lo, hi int) {
	per := (pl.NSC + lanes - 1) / lanes
	lo = lane * per
	hi = lo + per
	if hi > pl.NSC {
		hi = pl.NSC
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// JobsList returns the two-phase job: per-subcarrier estimation plus
// the reduction of the residual energy. It is built on the first call
// and shared by every later one, so callers must not modify it in place.
func (pl *Plan) JobsList() []engine.Job {
	if pl.jobs != nil {
		return pl.jobs
	}
	lanes := len(pl.Cores)
	estimate := func(p *engine.Proc) {
		lo, hi := pl.laneRange(p.Lane, lanes)
		var acc engine.A
		for sc := lo; sc < hi; sc++ {
			// The pilot load and the first beam's load are the only
			// back-to-back pair of the loop (every later beam load is
			// separated by the divide/store train), so only that pair
			// batches into one issue burst.
			pilot, y0 := p.Load2(pl.pilotBase+arch.Addr(sc), pl.yBase+arch.Addr(sc*pl.NB))
			for b := 0; b < pl.NB; b++ {
				y := y0
				if b > 0 {
					y = p.Load(pl.yBase + arch.Addr(sc*pl.NB+b))
				}
				h := p.CDiv(y, pilot)
				p.Store(pl.hBase+arch.Addr(sc*pl.NB+b), h)
				// Residual r = y - h*pilot feeds the NE autocorrelation.
				recon := p.CMul(h, pilot)
				r := p.CSub(y, recon)
				acc = p.MacAbs2(acc, r)
				p.Tick(1)
			}
			p.Tick(1)
		}
		part := p.Narrow(acc, pl.redShift)
		p.Store(pl.partBase+arch.Addr(p.Lane), part)
	}
	reduce := func(p *engine.Proc) {
		if p.Lane != 0 {
			return
		}
		one := p.Imm(fixed.Pack(fixed.MaxQ15, 0))
		var acc engine.A
		for l := 0; l < lanes; l++ {
			w := p.Load(pl.partBase + arch.Addr(l))
			acc = p.Mac(acc, w, one)
			p.Tick(1)
		}
		var shift uint
		for 1<<shift < lanes {
			shift++
		}
		sigma := p.Narrow(acc, shift)
		p.Store(pl.sigmaAddr, sigma)
	}
	pl.jobs = []engine.Job{{
		Name:  "chest",
		Cores: pl.Cores,
		Phases: []engine.Phase{
			{Name: "estimate", Kernel: "chest/est", Lines: 10, Work: estimate},
			{Name: "reduce", Kernel: "chest/red", Lines: 4, Work: reduce},
		},
	}}
	return pl.jobs
}

// Run executes the estimation pass.
func (pl *Plan) Run() error { return pl.m.Run(pl.JobsList()...) }
