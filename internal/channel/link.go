package channel

import (
	"math"
	"math/rand/v2"
)

// oscillators is the number of sinusoids summed per tap. Sixteen gives
// a close approximation of the Jakes Doppler spectrum (autocorrelation
// within a few percent of J0) at negligible evaluation cost.
const oscillators = 16

// fader is the sum-of-sinusoids realization of one tap's complex gain
// g(t) = los(t) + sum_m a * exp(i(w_m t + phi_m)): a closed-form,
// infinitely coherent function of time. Oscillator angles-of-arrival
// and phases are drawn once at construction; w_m = 2*pi*f_d*cos(alpha_m)
// places the spectral mass on the classic U-shaped Doppler spectrum.
type fader struct {
	w, phi  []float64 // scattered oscillators (rad/s, rad)
	scatter float64   // amplitude per scattered oscillator
	losW    float64   // LOS angular Doppler (rad/s); 0 without LOS
	losPhi  float64
	losAmp  float64 // 0 for pure Rayleigh taps
}

// newFader draws one tap's oscillators. power is the tap's PDP share;
// k is the linear Rician factor (0 = Rayleigh).
func newFader(rng *rand.Rand, dopplerHz, power, k float64) fader {
	f := fader{
		w:       make([]float64, oscillators),
		phi:     make([]float64, oscillators),
		scatter: math.Sqrt(power / (k + 1) / oscillators),
	}
	wMax := 2 * math.Pi * dopplerHz
	for m := 0; m < oscillators; m++ {
		f.w[m] = wMax * math.Cos(2*math.Pi*rng.Float64())
		f.phi[m] = 2 * math.Pi * rng.Float64()
	}
	if k > 0 {
		f.losAmp = math.Sqrt(power * k / (k + 1))
		f.losW = wMax * math.Cos(2*math.Pi*rng.Float64())
		f.losPhi = 2 * math.Pi * rng.Float64()
	}
	return f
}

// at evaluates the tap gain at time t seconds.
func (f *fader) at(t float64) complex128 {
	var re, im float64
	for m := range f.w {
		a := f.w[m]*t + f.phi[m]
		re += math.Cos(a)
		im += math.Sin(a)
	}
	re *= f.scatter
	im *= f.scatter
	if f.losAmp != 0 {
		a := f.losW*t + f.losPhi
		re += f.losAmp * math.Cos(a)
		im += f.losAmp * math.Sin(a)
	}
	return complex(re, im)
}

// LinkState is one UE's evolving channel toward nRx receive antennas:
// a fader per (antenna, tap), all derived from the UE's fading seed.
// E[sum_k |g_k(t)|^2] = 1 per antenna at every t (the discrete PDP is
// unit-energy), so MIMO assembly only divides by the UE count, matching
// the legacy normalization.
//
// LinkState is immutable after construction; TapsAt is a pure function
// of time, safe for concurrent use, and two LinkStates built from the
// same (spec, seed, nRx, taps) are interchangeable — the property that
// keeps traffic measurement byte-identical across worker counts.
type LinkState struct {
	// Seed is the UE fading identity the state was built from.
	Seed uint64
	// NRx is the receive-antenna count.
	NRx int
	// Taps is the discretized unit-energy power-delay profile.
	Taps []DiscreteTap

	faders [][]fader // [rx][tap]
	span   int       // longest tap lag + 1, the dense impulse-response length
}

// NewLinkState builds one UE's link state: spec supplies Doppler and
// Rician parameters, ueSeed the fading identity (see LayerSeed), taps
// the discretized profile (see Spec.Discretize). The strongest tap
// carries the LOS component when spec.RicianK > 0.
func NewLinkState(spec Spec, ueSeed uint64, nRx int, taps []DiscreteTap) *LinkState {
	ls := &LinkState{Seed: ueSeed, NRx: nRx, Taps: taps}
	strongest := 0
	for k, tap := range taps {
		if tap.Power > taps[strongest].Power {
			strongest = k
		}
		if tap.Delay >= ls.span {
			ls.span = tap.Delay + 1
		}
	}
	ls.faders = make([][]fader, nRx)
	for r := 0; r < nRx; r++ {
		ls.faders[r] = make([]fader, len(taps))
		for k, tap := range taps {
			// One private PCG stream per (rx, tap): the draw order of one
			// fader can never shift another's.
			salt := (uint64(r) << 20) | uint64(k)
			rng := rand.New(rand.NewPCG(ueSeed, Mix64(ueSeed^salt)))
			k0 := 0.0
			if k == strongest {
				k0 = spec.RicianK
			}
			ls.faders[r][k] = newFader(rng, spec.DopplerHz, tap.Power, k0)
		}
	}
	return ls
}

// TapsAt evaluates the UE's impulse response toward every receive
// antenna at tMs milliseconds on the channel time axis: a dense
// [rx][lag] array, one entry per lag up to the longest tap's, with zeros
// between taps, the layout waveform.Channel consumes.
func (ls *LinkState) TapsAt(tMs float64) [][]complex128 {
	t := tMs / 1e3
	out := make([][]complex128, ls.NRx)
	for r := range out {
		h := make([]complex128, ls.span)
		for k := range ls.Taps {
			h[ls.Taps[k].Delay] += ls.faders[r][k].at(t)
		}
		out[r] = h
	}
	return out
}
