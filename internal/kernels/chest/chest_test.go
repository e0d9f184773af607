package chest

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/phy"
)

// buildPilotSymbol synthesizes a received pilot symbol: channel columns
// h[sc][b], unit-modulus QPSK pilots, and additive noise of the given
// amplitude. It returns (y, pilots, h).
func buildPilotSymbol(rng *rand.Rand, nsc, nb int, noiseAmp float64) (y, pilots, h []fixed.C15) {
	y = make([]fixed.C15, nsc*nb)
	pilots = make([]fixed.C15, nsc)
	h = make([]fixed.C15, nsc*nb)
	qpsk := [4]complex128{
		complex(math.Sqrt2/2, math.Sqrt2/2),
		complex(-math.Sqrt2/2, math.Sqrt2/2),
		complex(-math.Sqrt2/2, -math.Sqrt2/2),
		complex(math.Sqrt2/2, -math.Sqrt2/2),
	}
	for sc := 0; sc < nsc; sc++ {
		p := qpsk[rng.IntN(4)]
		pilots[sc] = fixed.FromComplex(p)
		for b := 0; b < nb; b++ {
			ch := complex((rng.Float64()*2-1)*0.4, (rng.Float64()*2-1)*0.4)
			h[sc*nb+b] = fixed.FromComplex(ch)
			n := complex(rng.NormFloat64(), rng.NormFloat64()) * complex(noiseAmp, 0)
			y[sc*nb+b] = fixed.FromComplex(ch*p + n)
		}
	}
	return y, pilots, h
}

// firstCores returns the core set 0..n-1.
func firstCores(n int) []int {
	cs := make([]int, n)
	for i := range cs {
		cs[i] = i
	}
	return cs
}

func TestEstimateMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	m := engine.NewMachine(arch.MemPool())
	m.DebugRaces = true
	nsc, nb, nl := 64, 8, 4
	pl, err := NewPlanOn(m, firstCores(16), nsc, nb, nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	y, pilots, _ := buildPilotSymbol(rng, nsc, nb, 0.01)
	if err := pl.WriteY(y); err != nil {
		t.Fatal(err)
	}
	if err := pl.WritePilots(pilots); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	// The estimate must equal phy.EWDivide(y, pilot) element for element.
	got := pl.ReadH()
	for sc := 0; sc < nsc; sc++ {
		den := make([]fixed.C15, nb)
		for b := range den {
			den[b] = pilots[sc]
		}
		want := phy.EWDivide(y[sc*nb:(sc+1)*nb], den)
		for b := 0; b < nb; b++ {
			if got[sc*nb+b] != want[b] {
				t.Fatalf("h[%d][%d] = %08x, want %08x", sc, b, uint32(got[sc*nb+b]), uint32(want[b]))
			}
		}
	}
}

func TestEstimateRecoversChannel(t *testing.T) {
	// In low noise the LS estimate approximates the true channel.
	rng := rand.New(rand.NewPCG(3, 4))
	m := engine.NewMachine(arch.MemPool())
	nsc, nb := 32, 8
	pl, err := NewPlanOn(m, firstCores(8), nsc, nb, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	y, pilots, h := buildPilotSymbol(rng, nsc, nb, 0.002)
	if err := pl.WriteY(y); err != nil {
		t.Fatal(err)
	}
	if err := pl.WritePilots(pilots); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	got := pl.ReadH()
	for i := range got {
		if d := cmplx.Abs(got[i].Complex() - h[i].Complex()); d > 0.02 {
			t.Fatalf("element %d: |error| = %g", i, d)
		}
	}
}

func TestNoiseVarianceEstimate(t *testing.T) {
	// With noise amplitude a per component, E|n|^2 = 2a^2. The NE stage
	// must land near it (LS absorbs none of the noise here because the
	// reconstruction h*p uses the noisy estimate; residuals are zero by
	// construction at the estimated points UNLESS multiple beams share a
	// pilot, which they do: h is estimated per beam, so residuals vanish
	// exactly. Use the sigma of a mismatched reconstruction instead.)
	// Here we instead inject uncorrelated y and verify sigma equals the
	// mean residual energy computed by the golden model.
	rng := rand.New(rand.NewPCG(5, 6))
	m := engine.NewMachine(arch.MemPool())
	nsc, nb := 64, 8
	pl, err := NewPlanOn(m, firstCores(16), nsc, nb, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	y, pilots, _ := buildPilotSymbol(rng, nsc, nb, 0.05)
	if err := pl.WriteY(y); err != nil {
		t.Fatal(err)
	}
	if err := pl.WritePilots(pilots); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	// Golden residuals: r = y - (y/p)*p, the pure quantization residue of
	// the fixed-point round trip.
	var res []fixed.C15
	for sc := 0; sc < nsc; sc++ {
		for b := 0; b < nb; b++ {
			h := fixed.CDiv(y[sc*nb+b], pilots[sc])
			recon := fixed.Mul(h, pilots[sc])
			res = append(res, fixed.Sub(y[sc*nb+b], recon))
		}
	}
	want := float64(phy.NoisePower(res)) / float64(fixed.OneQ30)
	got := pl.Sigma()
	if math.Abs(got-want) > 2e-4 {
		t.Errorf("sigma = %g, golden %g", got, want)
	}
}

func TestPlanValidation(t *testing.T) {
	m := engine.NewMachine(arch.MemPool())
	if _, err := NewPlanOn(m, firstCores(4), 0, 4, 2, nil); err == nil {
		t.Error("zero subcarriers accepted")
	}
	if _, err := NewPlanOn(m, firstCores(4), 4, 4, 8, nil); err == nil {
		t.Error("comb factor above NSC accepted")
	}
	if _, err := NewPlanOn(m, firstCores(0), 64, 4, 2, nil); err == nil {
		t.Error("zero cores accepted")
	}
	pl, err := NewPlanOn(m, firstCores(4), 16, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.WriteY(make([]fixed.C15, 3)); err == nil {
		t.Error("short y accepted")
	}
	if err := pl.WritePilots(make([]fixed.C15, 3)); err == nil {
		t.Error("short pilots accepted")
	}
}

func TestOwnerComb(t *testing.T) {
	m := engine.NewMachine(arch.MemPool())
	pl, err := NewPlanOn(m, firstCores(4), 16, 2, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for sc := 0; sc < 16; sc++ {
		if got := pl.Owner(sc); got != sc%4 {
			t.Fatalf("Owner(%d) = %d", sc, got)
		}
	}
}
