// Package mimo implements the per-subcarrier MIMO detection stage of the
// PUSCH chain (Section II, Eq. 2): for every data subcarrier the kernel
// gathers the channel matrix estimate through the pilot comb, forms the
// regularized Gramian G = H^H H * 2^-shift + sigma^2 I, factors it with
// the Cholesky kernel, applies the matched filter z = H^H y, and solves
// the two triangular systems L(L^H x) = z.
//
// Subcarriers are independent, so the stage replicates across cores the
// same way the paper replicates small Cholesky decompositions: each core
// owns a contiguous slice of subcarriers, with per-core scratch storage
// folded into its local banks.
//
// The channel-estimate addresses the comb gathers read are composed once
// at plan time, one table row per comb position, and each subcarrier
// picks its rows once per UE column; like the scratch addresses, they
// cost the host a table lookup instead of an address-function call per
// gathered element.
package mimo

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/kernels/chol"
	"repro/internal/tcdm"
)

// Plan holds the layout of one data-symbol MIMO detection pass.
type Plan struct {
	NSC   int // data subcarriers
	NB    int // beams
	NL    int // UEs / layers (<= 4: scratch folds into a core's 4 banks)
	Shift uint
	// Interp enables linear interpolation of the channel estimate
	// between the two neighboring comb positions of each UE, instead of
	// the nearest-hold gather. Costs two extra loads and two multiplies
	// per gathered element; improves detection on frequency-selective
	// channels.
	Interp bool

	Cores []int

	m         *engine.Machine
	yBase     arch.Addr // received beams, sc-major: y[sc*NB+b]
	xBase     arch.Addr // detected symbols, sc-major: x[sc*NL+l]
	wBase     arch.Addr // interpolation weight table: w[k] = k/NL in Q1.15
	sigmaAddr arch.Addr
	scratch   []tcdm.TileBlock // per tile: G, L, z, y/x vectors per core
	// scratchTab caches each plan core's scratch word addresses
	// (row-major over the core's banks): the per-subcarrier solver walks
	// its scratch matrices thousands of times per slot, and the addresses
	// are fixed at plan build, so composing them once removes all host
	// address arithmetic from the inner loops.
	scratchTab [][]arch.Addr
	// hTab holds the channel-estimate address hAddr(pos, b) at pos*NB+b:
	// one row of beam addresses per comb position.
	hTab []arch.Addr

	jobs []engine.Job // built by the first JobsList call
}

// scratch rows per core (on its 4 banks): G (NL rows), L (NL rows),
// z+y vector row, x row.
func scratchRows(nl int) int { return 2*nl + 2 }

// NewPlan allocates the detection pass. hAddr and sigmaAddr come from the
// channel-estimation plan (chest.Plan.HAddr / SigmaAddr); they may also
// point at synthetic buffers in tests.
// yExternal, when non-nil, reuses an existing sc-major beam buffer.
func NewPlan(m *engine.Machine, nsc, nb, nl, coreCount int, hAddr func(sc, b int) arch.Addr, sigmaAddr arch.Addr, yExternal *arch.Addr) (*Plan, error) {
	if coreCount <= 0 || coreCount > m.Cfg.NumCores() {
		return nil, fmt.Errorf("mimo: %d cores requested, cluster has %d", coreCount, m.Cfg.NumCores())
	}
	set := make([]int, coreCount)
	for i := range set {
		set[i] = i
	}
	return NewPlanOn(m, set, nsc, nb, nl, hAddr, sigmaAddr, yExternal)
}

// NewPlanOn is NewPlan on an explicit core set instead of the first
// coreCount cores of the cluster, so a chain layout can pin MIMO
// detection to its own partition. Per-core scratch folds into the local
// banks of whatever tiles the set occupies.
func NewPlanOn(m *engine.Machine, cores []int, nsc, nb, nl int, hAddr func(sc, b int) arch.Addr, sigmaAddr arch.Addr, yExternal *arch.Addr) (*Plan, error) {
	coreCount := len(cores)
	switch {
	case nsc <= 0 || nb <= 0 || nl <= 0:
		return nil, fmt.Errorf("mimo: dimensions %d/%d/%d must be positive", nsc, nb, nl)
	case nl > 4:
		return nil, fmt.Errorf("mimo: %d layers exceed the 4-bank scratch fold", nl)
	case coreCount <= 0 || coreCount > m.Cfg.NumCores():
		return nil, fmt.Errorf("mimo: %d cores requested, cluster has %d", coreCount, m.Cfg.NumCores())
	case hAddr == nil:
		return nil, fmt.Errorf("mimo: nil channel address function")
	}
	pl := &Plan{NSC: nsc, NB: nb, NL: nl, m: m, sigmaAddr: sigmaAddr}
	for 1<<pl.Shift < nb {
		pl.Shift++
	}
	var err error
	if yExternal != nil {
		pl.yBase = *yExternal
	} else if pl.yBase, err = m.Mem.AllocSeq(nsc * nb); err != nil {
		return nil, fmt.Errorf("mimo: y: %w", err)
	}
	if pl.xBase, err = m.Mem.AllocSeq(nsc * nl); err != nil {
		return nil, fmt.Errorf("mimo: x: %w", err)
	}
	if pl.wBase, err = m.Mem.AllocSeq(nl + 1); err != nil {
		return nil, fmt.Errorf("mimo: weights: %w", err)
	}
	for k := 0; k <= nl; k++ {
		w := fixed.Pack(fixed.FloatToQ15(float64(k)/float64(nl)), 0)
		m.Mem.Write(pl.wBase+arch.Addr(k), uint32(w))
	}
	pl.Cores = append([]int(nil), cores...)
	pl.scratch = make([]tcdm.TileBlock, m.Cfg.NumTiles())
	for _, tile := range tilesOf(m.Cfg, pl.Cores) {
		blk, err := m.Mem.AllocTileLocal(tile, scratchRows(nl))
		if err != nil {
			return nil, fmt.Errorf("mimo: scratch tile %d: %w", tile, err)
		}
		pl.scratch[tile] = blk
	}
	cfg := m.Cfg
	pl.scratchTab = make([][]arch.Addr, cfg.NumCores())
	for _, core := range pl.Cores {
		tile := cfg.TileOfCore(core)
		tab := make([]arch.Addr, scratchRows(nl)*cfg.BanksPerCore)
		for row := 0; row < scratchRows(nl); row++ {
			for col := 0; col < cfg.BanksPerCore; col++ {
				bank := (core%cfg.CoresPerTile)*cfg.BanksPerCore + col
				tab[row*cfg.BanksPerCore+col] = pl.scratch[tile].Addr(bank, row)
			}
		}
		pl.scratchTab[core] = tab
	}
	pl.hTab = make([]arch.Addr, nsc*nb)
	for pos := 0; pos < nsc; pos++ {
		for b := 0; b < nb; b++ {
			pl.hTab[pos*nb+b] = hAddr(pos, b)
		}
	}
	return pl, nil
}

func tilesOf(cfg *arch.Config, cores []int) []int {
	seen := make(map[int]bool)
	var tiles []int
	for _, c := range cores {
		t := cfg.TileOfCore(c)
		if !seen[t] {
			seen[t] = true
			tiles = append(tiles, t)
		}
	}
	return tiles
}

// scratchAddr returns the address of scratch word (row, col) of a core,
// where col indexes the core's 4 banks (a precomposed table lookup).
func (pl *Plan) scratchAddr(core, row, col int) arch.Addr {
	return pl.scratchTab[core][row*pl.m.Cfg.BanksPerCore+col]
}

// Scratch map: rows [0,NL) = G, rows [NL,2NL) = L, row 2NL = z,
// row 2NL+1 = x (solve intermediate y reuses the z row).
func (pl *Plan) gAddr(core int) func(i, c int) arch.Addr {
	return func(i, c int) arch.Addr { return pl.scratchAddr(core, i, c) }
}
func (pl *Plan) lAddr(core int) func(i, c int) arch.Addr {
	return func(i, c int) arch.Addr { return pl.scratchAddr(core, pl.NL+i, c) }
}
func (pl *Plan) zAddr(core, l int) arch.Addr { return pl.scratchAddr(core, 2*pl.NL, l) }
func (pl *Plan) xTmp(core, l int) arch.Addr  { return pl.scratchAddr(core, 2*pl.NL+1, l) }

// WriteY stores the received data-symbol beams (host write, untimed).
func (pl *Plan) WriteY(y []fixed.C15) error {
	if len(y) != pl.NSC*pl.NB {
		return fmt.Errorf("mimo: WriteY: %d elements, want %d", len(y), pl.NSC*pl.NB)
	}
	for i, v := range y {
		pl.m.Mem.Write(pl.yBase+arch.Addr(i), uint32(v))
	}
	return nil
}

// ReadX returns the detected symbol vectors, sc-major (host read).
func (pl *Plan) ReadX() []fixed.C15 {
	out := make([]fixed.C15, pl.NSC*pl.NL)
	for i := range out {
		out[i] = fixed.C15(pl.m.Mem.Read(pl.xBase + arch.Addr(i)))
	}
	return out
}

// combSC returns the pilot subcarrier whose estimate provides column l of
// H at data subcarrier sc: the nearest comb position owned by UE l.
func (pl *Plan) combSC(sc, l int) int {
	base := sc - sc%pl.NL + l
	if base >= pl.NSC {
		base -= pl.NL
	}
	return base
}

// combBracket returns the two comb positions of UE l bracketing sc, and
// the interpolation numerator k (h = ((NL-k)*h[p0] + k*h[p1]) / NL).
// At the grid edges, or when sc sits on a comb position, it degenerates
// to a single point (k = 0).
func (pl *Plan) combBracket(sc, l int) (p0, p1, k int) {
	p0 = pl.combSC(sc, l)
	if p0 >= sc {
		return p0, p0, 0
	}
	p1 = p0 + pl.NL
	if p1 >= pl.NSC {
		return p0, p0, 0
	}
	return p0, p1, sc - p0
}

// comb is the channel-estimate gather of one UE column at one data
// subcarrier: the address rows of the bracketing comb positions and the
// interpolation numerator k. With k == 0 the gather reads lo alone.
type comb struct {
	lo, hi []arch.Addr
	k      int
}

// hRow returns the beam addresses of comb position pos.
func (pl *Plan) hRow(pos int) []arch.Addr { return pl.hTab[pos*pl.NB : (pos+1)*pl.NB] }

// combOf returns the gather of column l at data subcarrier sc:
// nearest-hold, or the interpolation bracket.
func (pl *Plan) combOf(sc, l int) comb {
	if !pl.Interp {
		return comb{lo: pl.hRow(pl.combSC(sc, l))}
	}
	p0, p1, k := pl.combBracket(sc, l)
	return comb{lo: pl.hRow(p0), hi: pl.hRow(p1), k: k}
}

// gatherH loads the channel estimate of column c for beam b, either
// nearest-hold or linearly interpolated between the bracketing comb
// positions.
func (pl *Plan) gatherH(p *engine.Proc, c *comb, b int) engine.W {
	if c.k == 0 {
		return p.Load(c.lo[b])
	}
	// The two bracketing estimates and the two interpolation weights
	// issue back to back: one gather burst.
	ga := [4]arch.Addr{
		c.lo[b], c.hi[b],
		pl.wBase + arch.Addr(pl.NL-c.k), pl.wBase + arch.Addr(c.k),
	}
	var gv [4]engine.W
	p.LoadGather(ga[:], gv[:])
	h0, h1, w0, w1 := gv[0], gv[1], gv[2], gv[3]
	return p.CAdd(p.MulTw(p.Widen(h0), w0, 0), p.MulTw(p.Widen(h1), w1, 0))
}

// gatherH2 loads the channel estimates of two UE columns for one beam.
// Without interpolation the two loads issue back to back (one burst);
// with interpolation each column runs its own gatherH arithmetic.
func (pl *Plan) gatherH2(p *engine.Proc, c0, c1 *comb, b int) (engine.W, engine.W) {
	if !pl.Interp {
		return p.Load2(c0.lo[b], c1.lo[b])
	}
	h0 := pl.gatherH(p, c0, b)
	h1 := pl.gatherH(p, c1, b)
	return h0, h1
}

// detect processes one subcarrier on one core.
func (pl *Plan) detect(p *engine.Proc, core, sc int) {
	nl, nb := pl.NL, pl.NB
	gA := pl.gAddr(core)
	var cs [4]comb // NL <= 4
	for l := 0; l < nl; l++ {
		cs[l] = pl.combOf(sc, l)
	}
	sigma := p.Load(pl.sigmaAddr)
	// Gramian G = H^H H * 2^-shift + sigma^2... the noise term is kept in
	// Q1.15 (sigma is already a variance), matching phy.Gramian.
	for i := 0; i < nl; i++ {
		for j := 0; j < nl; j++ {
			var acc engine.A
			for b := 0; b < nb; b++ {
				hj, hi := pl.gatherH2(p, &cs[j], &cs[i], b)
				acc = p.MacConj(acc, hj, hi)
				p.Tick(1)
			}
			v := p.Narrow(acc, pl.Shift)
			if i == j {
				v = p.CAdd(v, sigma)
			}
			p.Store(gA(i, j), v)
			p.Tick(1)
		}
	}
	// Matched filter z = H^H y * 2^-shift.
	for l := 0; l < nl; l++ {
		var acc engine.A
		for b := 0; b < nb; b++ {
			var y, h engine.W
			if !pl.Interp {
				// Beam sample and nearest-hold estimate: one issue burst.
				y, h = p.Load2(pl.yBase+arch.Addr(sc*nb+b), cs[l].lo[b])
			} else {
				y = p.Load(pl.yBase + arch.Addr(sc*nb+b))
				h = pl.gatherH(p, &cs[l], b)
			}
			acc = p.MacConj(acc, y, h)
			p.Tick(1)
		}
		p.Store(pl.zAddr(core, l), p.Narrow(acc, pl.Shift))
		p.Tick(1)
	}
	// Cholesky factorization of the scratch Gramian.
	chol.Decompose(p, nl, pl.gAddr(core), pl.lAddr(core))
	// Forward substitution L y = z (result overwrites the z row).
	lA := pl.lAddr(core)
	for i := 0; i < nl; i++ {
		var acc engine.A
		for k := 0; k < i; k++ {
			lv, yv := p.Load2(lA(i, k), pl.zAddr(core, k))
			acc = p.Mac(acc, lv, yv)
			p.Tick(1)
		}
		b := p.Load(pl.zAddr(core, i))
		num := p.AccSub(p.Widen(b), acc)
		den := p.Load(lA(i, i))
		p.Store(pl.zAddr(core, i), p.DivByRe(num, den))
		p.Tick(2)
	}
	// Backward substitution L^H x = y.
	for i := nl - 1; i >= 0; i-- {
		var acc engine.A
		for k := i + 1; k < nl; k++ {
			xv, lv := p.Load2(pl.xTmp(core, k), lA(k, i))
			acc = p.MacConj(acc, xv, lv)
			p.Tick(1)
		}
		yv := p.Load(pl.zAddr(core, i))
		num := p.AccSub(p.Widen(yv), acc)
		den := p.Load(lA(i, i))
		x := p.DivByRe(num, den)
		p.Store(pl.xTmp(core, i), x)
		p.Store(pl.xBase+arch.Addr(sc*nl+i), x)
		p.Tick(2)
	}
}

// JobsList returns the single job spanning the plan's cores. It is
// built on the first call and shared by every later one, so callers must
// not modify it in place; its work reads Interp when it runs.
func (pl *Plan) JobsList() []engine.Job {
	if pl.jobs != nil {
		return pl.jobs
	}
	lanes := len(pl.Cores)
	work := func(p *engine.Proc) {
		per := (pl.NSC + lanes - 1) / lanes
		lo := p.Lane * per
		hi := lo + per
		if hi > pl.NSC {
			hi = pl.NSC
		}
		core := pl.Cores[p.Lane]
		for sc := lo; sc < hi; sc++ {
			pl.detect(p, core, sc)
			p.Tick(1)
		}
	}
	pl.jobs = []engine.Job{{
		Name:  "mimo",
		Cores: pl.Cores,
		Phases: []engine.Phase{{
			Name: "detect", Kernel: "mimo/detect", Lines: 14, Work: work,
		}},
	}}
	return pl.jobs
}

// Run executes the detection pass.
func (pl *Plan) Run() error { return pl.m.Run(pl.JobsList()...) }
