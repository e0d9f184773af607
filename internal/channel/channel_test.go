package channel

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestParseProfile(t *testing.T) {
	for name, want := range map[string]Profile{
		"": IID, "iid": IID, "IID": IID,
		"tdl-a": TDLA, "TDLA": TDLA,
		"tdl-b": TDLB, "tdlb": TDLB,
		"tdl-c": TDLC,
	} {
		got, err := ParseProfile(name)
		if err != nil || got != want {
			t.Errorf("ParseProfile(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	if _, err := ParseProfile("tdl-z"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestPDPMatchesPublishedTables pins the TR 38.901 NLOS tables: tap
// counts, the strongest tap, the longest normalized delay, and spot
// values, so an accidental edit of the tables cannot pass silently.
func TestPDPMatchesPublishedTables(t *testing.T) {
	cases := []struct {
		profile   Profile
		taps      int
		strongest PDPTap // the 0 dB entry
		last      PDPTap // final table row
		spot      PDPTap // one mid-table row
	}{
		{TDLA, 23, PDPTap{0.3819, 0}, PDPTap{9.6586, -29.7}, PDPTap{1.8978, -6.6}},
		{TDLB, 23, PDPTap{0.0000, 0}, PDPTap{4.7834, -11.3}, PDPTap{1.7842, -1.9}},
		{TDLC, 24, PDPTap{0.6366, 0}, PDPTap{8.6523, -22.8}, PDPTap{1.2285, -5.1}},
	}
	for _, tc := range cases {
		pdp := PDP(tc.profile)
		if len(pdp) != tc.taps {
			t.Errorf("%s: %d taps, want %d", tc.profile, len(pdp), tc.taps)
			continue
		}
		var strongest PDPTap
		strongest.PowerdB = math.Inf(-1)
		found := map[PDPTap]bool{}
		for _, tap := range pdp {
			if tap.PowerdB > strongest.PowerdB {
				strongest = tap
			}
			found[tap] = true
		}
		if strongest != tc.strongest {
			t.Errorf("%s: strongest tap %+v, want %+v", tc.profile, strongest, tc.strongest)
		}
		if pdp[len(pdp)-1] != tc.last {
			t.Errorf("%s: last tap %+v, want %+v", tc.profile, pdp[len(pdp)-1], tc.last)
		}
		if !found[tc.spot] {
			t.Errorf("%s: spot tap %+v missing", tc.profile, tc.spot)
		}
	}
	if PDP(IID) != nil {
		t.Error("IID has a published PDP; it should be synthesized from the tap count")
	}
}

// TestDiscretizeUnitEnergy: every profile's discrete taps sum to unit
// power at several sample periods, and lags stay within the clamp.
func TestDiscretizeUnitEnergy(t *testing.T) {
	for _, p := range Profiles {
		for _, sampleNs := range []float64{SampleNs(256), SampleNs(64), 10} {
			spec := Spec{Profile: p}
			taps, err := spec.Discretize(sampleNs, 4, 63)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if len(taps) == 0 {
				t.Fatalf("%s: no taps", p)
			}
			var sum float64
			prev := -1
			for _, tap := range taps {
				if tap.Delay <= prev || tap.Delay > 63 {
					t.Errorf("%s: lag %d after %d (clamp 63)", p, tap.Delay, prev)
				}
				prev = tap.Delay
				sum += tap.Power
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("%s at %g ns: powers sum to %.15f", p, sampleNs, sum)
			}
		}
	}
}

// TestDiscretizeIID: the iid profile is sample-spaced and equal-power,
// the PDP of the legacy waveform.NewChannel draw.
func TestDiscretizeIID(t *testing.T) {
	taps, err := Spec{}.Discretize(SampleNs(256), 4, 63)
	if err != nil {
		t.Fatal(err)
	}
	if len(taps) != 4 {
		t.Fatalf("%d taps, want 4", len(taps))
	}
	for k, tap := range taps {
		if tap.Delay != k || math.Abs(tap.Power-0.25) > 1e-15 {
			t.Errorf("tap %d = %+v, want {%d 0.25}", k, tap, k)
		}
	}
}

// TestDelaySpreadStretchesProfile: a larger RMS delay spread must push
// taps to longer sample lags.
func TestDelaySpreadStretchesProfile(t *testing.T) {
	maxLag := func(ds float64) int {
		taps, err := Spec{Profile: TDLC, DelaySpreadNs: ds}.Discretize(SampleNs(256), 4, 255)
		if err != nil {
			t.Fatal(err)
		}
		return taps[len(taps)-1].Delay
	}
	if short, long := maxLag(30), maxLag(300); long <= short {
		t.Errorf("max lag %d at 300 ns not beyond %d at 30 ns", long, short)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Profile: "tdl-z"},
		{DopplerHz: -1},
		{RicianK: -0.5},
		{DelaySpreadNs: -10},
		{TimeMs: -1},
		{DopplerHz: math.NaN()},
		{DopplerHz: math.Inf(1)},
		{RicianK: math.NaN()},
		{RicianK: math.Inf(1)},
		{DelaySpreadNs: math.NaN()},
		{TimeMs: math.Inf(1)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec %+v accepted", i, s)
		}
	}
	if err := (Spec{Profile: TDLB, DopplerHz: 30, RicianK: 2, TimeMs: 1.5}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestLegacyClassification(t *testing.T) {
	legacy := []Spec{{}, {Profile: IID}, {Profile: IID, TimeMs: 3}}
	for i, s := range legacy {
		if !s.Legacy() {
			t.Errorf("case %d: %+v not classified legacy", i, s)
		}
	}
	active := []Spec{
		{Profile: TDLA},
		{DopplerHz: 30},
		{RicianK: 1},
		{Seed: 7},
	}
	for i, s := range active {
		if s.Legacy() {
			t.Errorf("case %d: %+v classified legacy", i, s)
		}
	}
}

// linkState builds a small state for the fading tests.
func linkState(t *testing.T, spec Spec, seed uint64, nRx int) *LinkState {
	t.Helper()
	spec.SetDefaults()
	taps, err := spec.Discretize(SampleNs(256), 4, 63)
	if err != nil {
		t.Fatal(err)
	}
	return NewLinkState(spec, seed, nRx, taps)
}

// TestLinkStateDeterministicAndCoherent: same (spec, seed, t) gives the
// same taps regardless of construction order or instance; zero Doppler
// freezes the channel; distinct seeds decorrelate.
func TestLinkStateDeterministicAndCoherent(t *testing.T) {
	spec := Spec{Profile: TDLB, DopplerHz: 30}
	a := linkState(t, spec, 42, 2)
	b := linkState(t, spec, 42, 2)
	ta, tb := a.TapsAt(1.25), b.TapsAt(1.25)
	for r := range ta {
		for k := range ta[r] {
			if ta[r][k] != tb[r][k] {
				t.Fatalf("two states from one seed disagree at rx %d lag %d", r, k)
			}
		}
	}
	frozen := linkState(t, Spec{Profile: TDLB}, 42, 1)
	h0, h1 := frozen.TapsAt(0), frozen.TapsAt(10)
	for k := range h0[0] {
		if h0[0][k] != h1[0][k] {
			t.Fatal("zero-Doppler channel moved")
		}
	}
	other := linkState(t, spec, 43, 2)
	same := true
	to := other.TapsAt(1.25)
	for k := range ta[0] {
		if ta[0][k] != to[0][k] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced an identical channel")
	}
}

// TestLinkStateUnitEnergy: the ensemble energy over many UE seeds is
// unity per receive antenna, preserving the legacy normalization.
func TestLinkStateUnitEnergy(t *testing.T) {
	spec := Spec{Profile: TDLA, DopplerHz: 50}
	var energy float64
	const n = 400
	for seed := uint64(1); seed <= n; seed++ {
		h := linkState(t, spec, seed, 1).TapsAt(0.7)
		for _, g := range h[0] {
			energy += real(g)*real(g) + imag(g)*imag(g)
		}
	}
	if mean := energy / n; math.Abs(mean-1) > 0.1 {
		t.Errorf("mean channel energy %.3f, want ~1", mean)
	}
}

// TestRicianRaisesLOSShare: with a large K the strongest tap's gain
// magnitude concentrates near its deterministic LOS amplitude, so the
// variance of its magnitude collapses compared to Rayleigh.
func TestRicianRaisesLOSShare(t *testing.T) {
	variance := func(k float64) float64 {
		var sum, sq float64
		const n = 300
		for seed := uint64(1); seed <= n; seed++ {
			spec := Spec{Profile: TDLB, RicianK: k}
			h := linkState(t, spec, seed, 1).TapsAt(0)
			m := cmplx.Abs(h[0][0]) // TDL-B's strongest tap is the first
			sum += m
			sq += m * m
		}
		mean := sum / n
		return sq/n - mean*mean
	}
	rayleigh, rician := variance(0), variance(20)
	if rician >= rayleigh/2 {
		t.Errorf("K=20 magnitude variance %.4f not well below Rayleigh %.4f", rician, rayleigh)
	}
}

// TestJakesAutocorrelation: the ensemble autocorrelation of one tap
// follows the Jakes shape J0(2 pi f_d tau) and therefore decays faster
// at higher UE speed.
func TestJakesAutocorrelation(t *testing.T) {
	// Ensemble correlation between t=0 and t=tau over many seeds.
	corr := func(fd, tauMs float64) float64 {
		var num complex128
		var p0 float64
		const n = 600
		for seed := uint64(1); seed <= n; seed++ {
			spec := Spec{Profile: IID, DopplerHz: fd}
			spec.SetDefaults()
			taps, err := spec.Discretize(SampleNs(256), 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			ls := NewLinkState(spec, seed, 1, taps)
			g0 := ls.TapsAt(0)[0][0]
			g1 := ls.TapsAt(tauMs)[0][0]
			num += g0 * cmplx.Conj(g1)
			p0 += real(g0)*real(g0) + imag(g0)*imag(g0)
		}
		return real(num) / p0
	}
	// 100 Hz at tau=1 ms: J0(2 pi * 0.1) ~ 0.903; at tau=4 ms:
	// J0(2 pi * 0.4) ~ -0.048.
	for _, tc := range []struct{ fd, tauMs, want float64 }{
		{100, 1, math.J0(2 * math.Pi * 100 * 1e-3)},
		{100, 4, math.J0(2 * math.Pi * 100 * 4e-3)},
		{30, 1, math.J0(2 * math.Pi * 30 * 1e-3)},
	} {
		got := corr(tc.fd, tc.tauMs)
		if math.Abs(got-tc.want) > 0.12 {
			t.Errorf("autocorr(fd=%g, tau=%gms) = %.3f, want J0 = %.3f",
				tc.fd, tc.tauMs, got, tc.want)
		}
	}
	// Faster UE -> faster decorrelation at a fixed lag.
	slow, fast := corr(10, 1), corr(200, 1)
	if fast >= slow {
		t.Errorf("autocorr at 200 Hz (%.3f) not below 10 Hz (%.3f)", fast, slow)
	}
}

func TestDopplerFromSpeed(t *testing.T) {
	// 30 km/h at 3.5 GHz is ~97 Hz.
	if fd := DopplerFromSpeed(30, 3.5); math.Abs(fd-97.3) > 0.5 {
		t.Errorf("DopplerFromSpeed(30, 3.5) = %.2f Hz, want ~97.3", fd)
	}
	if fd := DopplerFromSpeed(0, 3.5); fd != 0 {
		t.Errorf("static UE has Doppler %g", fd)
	}
}

func TestLayerSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for base := uint64(1); base <= 8; base++ {
		for l := 0; l < 4; l++ {
			s := LayerSeed(base, l)
			if seen[s] {
				t.Fatalf("LayerSeed collision at base %d layer %d", base, l)
			}
			seen[s] = true
			if s2 := LayerSeed(base, l); s2 != s {
				t.Fatal("LayerSeed not pure")
			}
		}
	}
}
