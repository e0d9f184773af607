// Package channel is the fading-channel subsystem of the reproduction:
// named 3GPP TR 38.901-style tapped-delay-line profiles (TDL-A/B/C plus
// the legacy iid model), Rayleigh/Rician tap fading with Doppler time
// evolution, and per-UE link state that evolves coherently across slots.
//
// The design constraint is the repo-wide determinism rule: a slot's
// channel must be a pure function of (spec, UE seed, time), never of
// evaluation order, so traffic schedulers can measure slots on any
// worker in any order and still produce byte-identical results. Fading
// is therefore realized as a sum of sinusoids (a Jakes/Clarke spectrum
// realization): every tap's complex gain is a closed-form function of
// time whose oscillator angles and phases are drawn once from the UE
// seed. Consecutive slots of the same UE evaluate the same oscillators
// at later times and thus see a correlated channel; with zero Doppler
// the channel is frozen per UE; distinct UE seeds give independent
// channels.
package channel

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Profile names a power-delay profile. The zero value ("") is the iid
// profile, preserving the legacy ChainConfig behaviour of uniform-power
// sample-spaced Rayleigh taps.
type Profile string

const (
	// IID is the legacy channel model: Taps equal-power sample-spaced
	// Rayleigh taps (what waveform.NewChannel draws).
	IID Profile = "iid"
	// TDLA is the 3GPP TR 38.901 TDL-A NLOS profile (Table 7.7.2-1).
	TDLA Profile = "tdl-a"
	// TDLB is the TDL-B NLOS profile (Table 7.7.2-2).
	TDLB Profile = "tdl-b"
	// TDLC is the TDL-C NLOS profile (Table 7.7.2-3).
	TDLC Profile = "tdl-c"
)

// Profiles lists every named profile in canonical order.
var Profiles = []Profile{IID, TDLA, TDLB, TDLC}

// ParseProfile maps a flag or wire name to a Profile. The empty string
// parses to IID, matching the Spec zero value.
func ParseProfile(name string) (Profile, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", string(IID):
		return IID, nil
	case string(TDLA), "tdla":
		return TDLA, nil
	case string(TDLB), "tdlb":
		return TDLB, nil
	case string(TDLC), "tdlc":
		return TDLC, nil
	default:
		return "", fmt.Errorf("channel: unknown profile %q (want iid, tdl-a, tdl-b or tdl-c)", name)
	}
}

// PDPTap is one published power-delay-profile entry: delay normalized
// to the RMS delay spread, power in dB.
type PDPTap struct {
	DelayNorm float64
	PowerdB   float64
}

// tdlA, tdlB and tdlC are the TR 38.901 NLOS tapped-delay-line tables
// (Tables 7.7.2-1..3): normalized delays scale with the chosen RMS
// delay spread, powers are relative in dB. All taps are Rayleigh in the
// standard; a Rician K in the Spec converts the strongest tap to a LOS
// component.
var tdlA = []PDPTap{
	{0.0000, -13.4}, {0.3819, 0}, {0.4025, -2.2}, {0.5868, -4},
	{0.4610, -6}, {0.5375, -8.2}, {0.6708, -9.9}, {0.5750, -10.5},
	{0.7618, -7.5}, {1.5375, -15.9}, {1.8978, -6.6}, {2.2242, -16.7},
	{2.1718, -12.4}, {2.4942, -15.2}, {2.5119, -10.8}, {3.0582, -11.3},
	{4.0810, -12.7}, {4.4579, -16.2}, {4.5695, -18.3}, {4.7966, -18.9},
	{5.0066, -16.6}, {5.3043, -19.9}, {9.6586, -29.7},
}

var tdlB = []PDPTap{
	{0.0000, 0}, {0.1072, -2.2}, {0.2155, -4}, {0.2095, -3.2},
	{0.2870, -9.8}, {0.2986, -1.2}, {0.3752, -3.4}, {0.5055, -5.2},
	{0.3681, -7.6}, {0.3697, -3}, {0.5700, -8.9}, {0.5283, -9},
	{1.1021, -4.8}, {1.2756, -5.7}, {1.5474, -7.5}, {1.7842, -1.9},
	{2.0169, -7.6}, {2.8294, -12.2}, {3.0219, -9.8}, {3.6187, -11.4},
	{4.1067, -14.9}, {4.2790, -9.2}, {4.7834, -11.3},
}

var tdlC = []PDPTap{
	{0, -4.4}, {0.2099, -1.2}, {0.2219, -3.5}, {0.2329, -5.2},
	{0.2176, -2.5}, {0.6366, 0}, {0.6448, -2.2}, {0.6560, -3.9},
	{0.6584, -7.4}, {0.7935, -7.1}, {0.8213, -10.7}, {0.9336, -11.1},
	{1.2285, -5.1}, {1.3083, -6.8}, {2.1704, -8.7}, {2.7105, -13.2},
	{4.2589, -13.9}, {4.6003, -13.9}, {5.4902, -15.8}, {5.6077, -17.1},
	{6.3065, -16}, {6.6374, -15.7}, {7.0427, -21.6}, {8.6523, -22.8},
}

// PDP returns the published power-delay profile of a TDL profile, or
// nil for IID (whose profile is uniform over the configured tap count,
// not a published table).
func PDP(p Profile) []PDPTap {
	switch p {
	case TDLA:
		return tdlA
	case TDLB:
		return tdlB
	case TDLC:
		return tdlC
	default:
		return nil
	}
}

// DefaultDelaySpreadNs is the RMS delay spread the TDL profiles are
// scaled by when a Spec does not pin one: TR 38.901's "normal" 100 ns.
const DefaultDelaySpreadNs = 100

// SubcarrierSpacingHz is the nominal numerology the subsystem assumes
// when converting tap delays to OFDM sample lags: 30 kHz SCS, the 5G
// FR1 mid-band default. One sample of an n-point OFDM symbol then
// spans 1/(n * SCS) seconds.
const SubcarrierSpacingHz = 30e3

// SampleNs returns the duration of one time-domain sample of an n-point
// OFDM symbol at the nominal numerology, in nanoseconds.
func SampleNs(n int) float64 {
	return 1e9 / (float64(n) * SubcarrierSpacingHz)
}

// Spec selects and parameterizes the fading model of one slot. The zero
// value is the legacy channel (iid profile, no Doppler, channel drawn
// fresh from the chain seed each slot), so existing configurations are
// untouched.
type Spec struct {
	// Profile names the power-delay profile ("" means iid).
	Profile Profile
	// DopplerHz is the maximum Doppler shift f_d in Hz (v/c * f_c). Zero
	// freezes the fading in time: with a pinned Seed the same UE sees the
	// same channel every slot.
	DopplerHz float64
	// RicianK is the linear Rician K-factor applied to the strongest tap
	// (LOS power over scattered power). Zero keeps every tap Rayleigh.
	RicianK float64
	// DelaySpreadNs scales the TDL profiles' normalized delays; zero
	// means DefaultDelaySpreadNs. Ignored by the iid profile, which is
	// sample-spaced by construction.
	DelaySpreadNs float64
	// Seed is the UE fading identity: link states derived from the same
	// Seed evolve the same oscillators, so consecutive slots of one UE
	// are correlated. Zero falls back to the slot's payload seed (every
	// slot then draws an independent channel, like the legacy model).
	Seed uint64
	// TimeMs is the slot's position on the channel's time axis in
	// milliseconds: the coordinate the Doppler evolution is evaluated at.
	// Traffic generators stamp it from the job's arrival time.
	TimeMs float64
}

// Legacy reports whether the spec is the backwards-compatible zero
// configuration: iid profile, no Doppler, no LOS, no pinned fading
// seed. Legacy specs reproduce the original Taps-based channel draw
// bit-identically (the transmit stage keeps the original code path).
func (s Spec) Legacy() bool {
	return (s.Profile == "" || s.Profile == IID) &&
		s.DopplerHz == 0 && s.RicianK == 0 && s.Seed == 0
}

// EffectiveProfile resolves the zero value to IID.
func (s Spec) EffectiveProfile() Profile {
	if s.Profile == "" {
		return IID
	}
	return s.Profile
}

// SetDefaults fills the zero-value parameters that have non-zero
// defaults.
func (s *Spec) SetDefaults() {
	if s.Profile == "" {
		s.Profile = IID
	}
	if s.DelaySpreadNs == 0 {
		s.DelaySpreadNs = DefaultDelaySpreadNs
	}
}

// Validate rejects specs the subsystem cannot realize: an unknown
// profile, or a float field that is negative, NaN or infinite.
func (s Spec) Validate() error {
	if _, err := ParseProfile(string(s.Profile)); err != nil {
		return err
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"DopplerHz", s.DopplerHz}, {"RicianK", s.RicianK},
		{"DelaySpreadNs", s.DelaySpreadNs}, {"TimeMs", s.TimeMs},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("channel: %s = %g, want a finite non-negative value", f.name, f.v)
		}
	}
	return nil
}

// DopplerFromSpeed converts a UE speed in km/h and a carrier frequency
// in GHz to the maximum Doppler shift in Hz: f_d = v/c * f_c. At
// 3.5 GHz, 30 km/h is ~97 Hz.
func DopplerFromSpeed(speedKmh, carrierGHz float64) float64 {
	const c = 299792458.0
	return speedKmh / 3.6 * carrierGHz * 1e9 / c
}

// DiscreteTap is one sample-lag tap of a discretized power-delay
// profile: Delay in OFDM samples, Power linear. A profile's powers sum
// to one, so the channel preserves unit average energy per RX/UE pair.
type DiscreteTap struct {
	Delay int
	Power float64
}

// Discretize maps the spec's profile onto the sample grid: published
// delays scale by the delay spread and round to sample lags (merging
// taps that land on the same lag, clamping to maxDelay), powers convert
// from dB and normalize to unit sum. The iid profile returns iidTaps
// sample-spaced equal-power taps, matching the legacy model's PDP.
func (s Spec) Discretize(sampleNs float64, iidTaps, maxDelay int) ([]DiscreteTap, error) {
	s.SetDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if sampleNs <= 0 {
		return nil, fmt.Errorf("channel: sample period %g ns not positive", sampleNs)
	}
	if maxDelay < 0 {
		maxDelay = 0
	}
	pdp := PDP(s.Profile)
	if pdp == nil { // iid
		if iidTaps < 1 {
			iidTaps = 1
		}
		if iidTaps > maxDelay+1 {
			iidTaps = maxDelay + 1
		}
		taps := make([]DiscreteTap, iidTaps)
		for k := range taps {
			taps[k] = DiscreteTap{Delay: k, Power: 1 / float64(iidTaps)}
		}
		return taps, nil
	}
	byLag := map[int]float64{}
	var total float64
	for _, tap := range pdp {
		lag := int(math.Round(tap.DelayNorm * s.DelaySpreadNs / sampleNs))
		if lag > maxDelay {
			lag = maxDelay
		}
		p := math.Pow(10, tap.PowerdB/10)
		byLag[lag] += p
		total += p
	}
	taps := make([]DiscreteTap, 0, len(byLag))
	for lag, p := range byLag {
		taps = append(taps, DiscreteTap{Delay: lag, Power: p / total})
	}
	sort.Slice(taps, func(a, b int) bool { return taps[a].Delay < taps[b].Delay })
	return taps, nil
}

// LayerSeed derives the fading seed of one spatial layer (UE) from a
// base seed, splitmix64-style: decorrelated across layers yet a pure
// function of (base, layer), so the same UE identity always evolves the
// same channel.
func LayerSeed(base uint64, layer int) uint64 {
	return Mix64((base ^ 0xc8a5c5b1d3f0a9e7) + 0x9e3779b97f4a7c15*uint64(layer+1))
}

// Mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
// It is the one seed mixer the repo derives decorrelated sub-seeds
// with (layer seeds, fader streams, pilot initializations), exported so
// callers do not copy the constants.
func Mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}
