package mimo

import (
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/phy"
	"repro/internal/ref"
)

// synthEnv builds a synthetic channel-estimate grid (one column estimate
// per pilot subcarrier, as chest produces), a sigma word, and received
// data beams for a known transmitted grid. Returns the plan inputs plus
// the ground truth.
type synthEnv struct {
	nsc, nb, nl int
	hGrid       []fixed.C15 // [sc*nb+b]
	sigma       int16
	y           []fixed.C15 // [sc*nb+b]
	x           []fixed.C15 // [sc*nl+l] transmitted
}

func buildEnv(rng *rand.Rand, nsc, nb, nl int) *synthEnv {
	e := &synthEnv{nsc: nsc, nb: nb, nl: nl}
	e.sigma = fixed.FloatToQ15(0.02)
	// One true H per comb block, so comb gathering is exact.
	blocks := nsc / nl
	hTrue := make([][]complex128, blocks)
	for blk := range hTrue {
		h := make([]complex128, nb*nl)
		for i := range h {
			h[i] = complex((rng.Float64()*2-1)*0.35, (rng.Float64()*2-1)*0.35)
		}
		hTrue[blk] = h
	}
	e.hGrid = make([]fixed.C15, nsc*nb)
	for sc := 0; sc < nsc; sc++ {
		blk := sc / nl
		l := sc % nl // owner UE of this pilot subcarrier
		for b := 0; b < nb; b++ {
			e.hGrid[sc*nb+b] = fixed.FromComplex(hTrue[blk][b*nl+l])
		}
	}
	// Transmit random QPSK-ish symbols and pass them through the true
	// channel (float), then quantize.
	e.x = make([]fixed.C15, nsc*nl)
	e.y = make([]fixed.C15, nsc*nb)
	for sc := 0; sc < nsc; sc++ {
		blk := sc / nl
		xv := make([]complex128, nl)
		for l := range xv {
			xv[l] = complex((rng.Float64()*2-1)*0.25, (rng.Float64()*2-1)*0.25)
			e.x[sc*nl+l] = fixed.FromComplex(xv[l])
		}
		hm := &ref.Mat{Rows: nb, Cols: nl, Data: make([]complex128, nb*nl)}
		for i := range hm.Data {
			hm.Data[i] = hTrue[blk][i]
		}
		yv := ref.MatVec(hm, xv)
		for b := 0; b < nb; b++ {
			e.y[sc*nb+b] = fixed.FromComplex(yv[b])
		}
	}
	return e
}

// install writes the env into a machine and returns the plan.
func (e *synthEnv) install(t *testing.T, m *engine.Machine, cores int) *Plan {
	t.Helper()
	hBase, err := m.Mem.AllocSeq(e.nsc * e.nb)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range e.hGrid {
		m.Mem.Write(hBase+arch.Addr(i), uint32(v))
	}
	sigmaAddr, err := m.Mem.AllocSeq(1)
	if err != nil {
		t.Fatal(err)
	}
	m.Mem.Write(sigmaAddr, uint32(fixed.Pack(e.sigma, 0)))
	pl, err := NewPlan(m, e.nsc, e.nb, e.nl, cores,
		func(sc, b int) arch.Addr { return hBase + arch.Addr(sc*e.nb+b) }, sigmaAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.WriteY(e.y); err != nil {
		t.Fatal(err)
	}
	return pl
}

// goldenDetect reproduces the kernel arithmetic with phy routines.
func (e *synthEnv) goldenDetect(pl *Plan) []fixed.C15 {
	out := make([]fixed.C15, e.nsc*e.nl)
	for sc := 0; sc < e.nsc; sc++ {
		// Gather H through the comb exactly like the kernel.
		h := make([]fixed.C15, e.nb*e.nl)
		for l := 0; l < e.nl; l++ {
			psc := pl.combSC(sc, l)
			for b := 0; b < e.nb; b++ {
				h[b*e.nl+l] = e.hGrid[psc*e.nb+b]
			}
		}
		g := phy.Gramian(h, e.nb, e.nl, pl.Shift, e.sigma)
		lmat := phy.Cholesky(g, e.nl)
		z := phy.MatVecConjT(h, e.y[sc*e.nb:(sc+1)*e.nb], e.nb, e.nl, pl.Shift)
		y := phy.ForwardSub(lmat, z, e.nl)
		x := phy.BackSubHermitian(lmat, y, e.nl)
		copy(out[sc*e.nl:], x)
	}
	return out
}

func TestDetectMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, tc := range []struct {
		cfg   *arch.Config
		cores int
	}{
		{arch.MemPool(), 16},
		{arch.TeraPool(), 32},
	} {
		e := buildEnv(rng, 64, 8, 4)
		m := engine.NewMachine(tc.cfg)
		m.DebugRaces = true
		pl := e.install(t, m, tc.cores)
		if err := pl.Run(); err != nil {
			t.Fatal(err)
		}
		got := pl.ReadX()
		want := e.goldenDetect(pl)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: x[%d] = %08x, want %08x", tc.cfg.Name, i, uint32(got[i]), uint32(want[i]))
			}
		}
	}
}

func TestDetectRecoversSymbols(t *testing.T) {
	// End-to-end: detected symbols approximate the transmitted ones.
	rng := rand.New(rand.NewPCG(3, 4))
	e := buildEnv(rng, 32, 16, 4)
	m := engine.NewMachine(arch.MemPool())
	pl := e.install(t, m, 8)
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	got := pl.ReadX()
	var worst float64
	for i := range got {
		if d := cmplx.Abs(got[i].Complex() - e.x[i].Complex()); d > worst {
			worst = d
		}
	}
	// The MMSE shrinkage bias is sigma^2/diag(G) ~ 15% of the symbol
	// amplitude here, plus quantization; 0.12 bounds both.
	if worst > 0.12 {
		t.Errorf("worst symbol error %g too large", worst)
	}
}

func TestScratchIsLocal(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	e := buildEnv(rng, 16, 4, 4)
	m := engine.NewMachine(arch.TeraPool())
	pl := e.install(t, m, 8)
	cfg := m.Cfg
	for lane, core := range pl.Cores {
		for row := 0; row < scratchRows(pl.NL); row++ {
			for col := 0; col < 4; col++ {
				if lv := cfg.LevelFor(core, pl.scratchAddr(core, row, col)); lv != arch.LevelLocal {
					t.Fatalf("lane %d scratch (%d,%d) at level %s", lane, row, col, lv)
				}
			}
		}
	}
}

func TestPlanValidation(t *testing.T) {
	m := engine.NewMachine(arch.MemPool())
	haddr := func(sc, b int) arch.Addr { return 0 }
	if _, err := NewPlan(m, 0, 4, 4, 4, haddr, 0, nil); err == nil {
		t.Error("zero subcarriers accepted")
	}
	if _, err := NewPlan(m, 16, 4, 8, 4, haddr, 0, nil); err == nil {
		t.Error("nl > 4 accepted")
	}
	if _, err := NewPlan(m, 16, 4, 4, 0, haddr, 0, nil); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewPlan(m, 16, 4, 4, 4, nil, 0, nil); err == nil {
		t.Error("nil hAddr accepted")
	}
	pl, err := NewPlan(m, 16, 4, 4, 4, haddr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.WriteY(make([]fixed.C15, 3)); err == nil {
		t.Error("short y accepted")
	}
}

func TestCombSC(t *testing.T) {
	m := engine.NewMachine(arch.MemPool())
	haddr := func(sc, b int) arch.Addr { return 0 }
	pl, err := NewPlan(m, 16, 4, 4, 4, haddr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for sc := 0; sc < 16; sc++ {
		for l := 0; l < 4; l++ {
			psc := pl.combSC(sc, l)
			if psc%4 != l {
				t.Fatalf("combSC(%d,%d) = %d not owned by UE %d", sc, l, psc, l)
			}
			if psc < 0 || psc >= 16 {
				t.Fatalf("combSC(%d,%d) = %d out of range", sc, l, psc)
			}
		}
	}
}

// buildRampEnv creates a channel whose entries vary *linearly* across
// subcarriers, so linear interpolation between comb positions is exact
// while nearest-hold is off by up to the per-comb slope.
func buildRampEnv(rng *rand.Rand, nsc, nb, nl int) *synthEnv {
	e := &synthEnv{nsc: nsc, nb: nb, nl: nl}
	e.sigma = fixed.FloatToQ15(0.01)
	h0 := make([]complex128, nb*nl)
	slope := make([]complex128, nb*nl)
	for i := range h0 {
		h0[i] = complex((rng.Float64()*2-1)*0.25, (rng.Float64()*2-1)*0.25)
		slope[i] = complex((rng.Float64()*2-1)*0.3/float64(nsc), (rng.Float64()*2-1)*0.3/float64(nsc))
	}
	hAt := func(sc int) []complex128 {
		h := make([]complex128, nb*nl)
		for i := range h {
			h[i] = h0[i] + slope[i]*complex(float64(sc), 0)
		}
		return h
	}
	// Pilot grid: subcarrier sc holds UE (sc % nl)'s column at sc.
	e.hGrid = make([]fixed.C15, nsc*nb)
	for sc := 0; sc < nsc; sc++ {
		h := hAt(sc)
		l := sc % nl
		for b := 0; b < nb; b++ {
			e.hGrid[sc*nb+b] = fixed.FromComplex(h[b*nl+l])
		}
	}
	e.x = make([]fixed.C15, nsc*nl)
	e.y = make([]fixed.C15, nsc*nb)
	for sc := 0; sc < nsc; sc++ {
		h := hAt(sc)
		xv := make([]complex128, nl)
		for l := range xv {
			xv[l] = complex((rng.Float64()*2-1)*0.25, (rng.Float64()*2-1)*0.25)
			e.x[sc*nl+l] = fixed.FromComplex(xv[l])
		}
		for b := 0; b < nb; b++ {
			var acc complex128
			for l := 0; l < nl; l++ {
				acc += h[b*nl+l] * xv[l]
			}
			e.y[sc*nb+b] = fixed.FromComplex(acc)
		}
	}
	return e
}

// TestCombTableMatchesGather pins the comb gather to its formulas: for
// every data subcarrier, UE column and beam, with interpolation off and
// on, the plan gathers hAddr at combSC's position, or at combBracket's
// two positions with its interpolation numerator. The subcarrier count
// is not a multiple of the layer count, so the last comb wraps back.
func TestCombTableMatchesGather(t *testing.T) {
	const nsc, nb, nl = 62, 8, 4
	hAddr := func(sc, b int) arch.Addr { return arch.Addr(1000 + 37*sc + 5*b) }
	pl, err := NewPlan(engine.NewMachine(arch.MemPool()), nsc, nb, nl, 16, hAddr, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, interp := range []bool{false, true} {
		pl.Interp = interp
		for sc := 0; sc < nsc; sc++ {
			for l := 0; l < nl; l++ {
				p0, p1, k := pl.combSC(sc, l), 0, 0
				if interp {
					p0, p1, k = pl.combBracket(sc, l)
				}
				c := pl.combOf(sc, l)
				if c.k != k {
					t.Fatalf("interp %v sc %d column %d: numerator %d, want %d", interp, sc, l, c.k, k)
				}
				for b := 0; b < nb; b++ {
					if c.lo[b] != hAddr(p0, b) || k > 0 && c.hi[b] != hAddr(p1, b) {
						t.Fatalf("interp %v sc %d column %d beam %d: gathers %d/%d, want %d/%d (k %d)",
							interp, sc, l, b, c.lo[b], c.hi[b], hAddr(p0, b), hAddr(p1, b), k)
					}
				}
			}
		}
	}
}

// TestInterpolationImprovesDetection: on a linearly varying channel the
// interpolated gather must beat nearest-hold.
func TestInterpolationImprovesDetection(t *testing.T) {
	worst := func(interp bool) float64 {
		rng := rand.New(rand.NewPCG(61, 62))
		e := buildRampEnv(rng, 64, 8, 4)
		m := engine.NewMachine(arch.MemPool())
		pl := e.install(t, m, 16)
		pl.Interp = interp
		if err := pl.Run(); err != nil {
			t.Fatal(err)
		}
		got := pl.ReadX()
		var w float64
		for i := range got {
			if d := cmplx.Abs(got[i].Complex() - e.x[i].Complex()); d > w {
				w = d
			}
		}
		return w
	}
	nearest := worst(false)
	interp := worst(true)
	if interp >= nearest {
		t.Errorf("interpolated worst error %g not below nearest-hold %g", interp, nearest)
	}
}

// TestInterpolatedGatherGolden pins the interpolation arithmetic against
// a direct fixed-point evaluation.
func TestInterpolatedGatherGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 64))
	e := buildEnv(rng, 32, 4, 4)
	m := engine.NewMachine(arch.MemPool())
	pl := e.install(t, m, 8)
	pl.Interp = true
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	// Golden: rebuild the detection with the same interpolated gather.
	out := make([]fixed.C15, e.nsc*e.nl)
	gather := func(sc, l, b int) fixed.C15 {
		p0, p1, k := pl.combBracket(sc, l)
		if k == 0 {
			return e.hGrid[p0*e.nb+b]
		}
		w0 := fixed.Pack(fixed.FloatToQ15(float64(pl.NL-k)/float64(pl.NL)), 0)
		w1 := fixed.Pack(fixed.FloatToQ15(float64(k)/float64(pl.NL)), 0)
		a := fixed.MulAccTw(fixed.AccFromC15(e.hGrid[p0*e.nb+b]), w0, 0)
		bb := fixed.MulAccTw(fixed.AccFromC15(e.hGrid[p1*e.nb+b]), w1, 0)
		return fixed.Add(a, bb)
	}
	for sc := 0; sc < e.nsc; sc++ {
		h := make([]fixed.C15, e.nb*e.nl)
		for l := 0; l < e.nl; l++ {
			for b := 0; b < e.nb; b++ {
				h[b*e.nl+l] = gather(sc, l, b)
			}
		}
		g := phy.Gramian(h, e.nb, e.nl, pl.Shift, e.sigma)
		lmat := phy.Cholesky(g, e.nl)
		z := phy.MatVecConjT(h, e.y[sc*e.nb:(sc+1)*e.nb], e.nb, e.nl, pl.Shift)
		y := phy.ForwardSub(lmat, z, e.nl)
		x := phy.BackSubHermitian(lmat, y, e.nl)
		copy(out[sc*e.nl:], x)
	}
	got := pl.ReadX()
	for i := range got {
		if got[i] != out[i] {
			t.Fatalf("x[%d] = %08x, want %08x", i, uint32(got[i]), uint32(out[i]))
		}
	}
}
