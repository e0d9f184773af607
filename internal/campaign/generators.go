package campaign

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/pusch"
	"repro/internal/waveform"
)

// maxSNRPoints caps the SNR axis of one sweep or link curve (the
// default puschsim sweep has 10 points). A family that would run past
// it is returned empty, like one whose bounds or step are not finite.
const maxSNRPoints = 1000

// snrPoints returns the SNR axis from minDB to maxDB inclusive in stepDB
// increments (stepDB <= 0 defaults to 2 dB), or nil when a bound or the
// step is not finite or the axis would exceed maxSNRPoints.
func snrPoints(minDB, maxDB, stepDB float64) []float64 {
	for _, v := range []float64{minDB, maxDB, stepDB} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
	}
	if stepDB <= 0 {
		stepDB = 2
	}
	var out []float64
	for i := 0; ; i++ {
		snr := minDB + float64(i)*stepDB
		if snr > maxDB+1e-9 {
			return out
		}
		if i == maxSNRPoints {
			return nil
		}
		out = append(out, snr)
	}
}

// SNRSweep returns one chain scenario per SNR point from minDB to maxDB
// inclusive in stepDB increments (stepDB <= 0 defaults to 2 dB), the
// family behind BER/EVM-versus-SNR curves. All other parameters come
// from base. Non-finite arguments or more than 1000 points yield no
// scenarios.
func SNRSweep(base pusch.ChainConfig, minDB, maxDB, stepDB float64) []Scenario {
	var out []Scenario
	for _, snr := range snrPoints(minDB, maxDB, stepDB) {
		cfg := base
		cfg.SNRdB = snr
		out = append(out, Scenario{
			Name:  fmt.Sprintf("snr%+05.1fdB-%s", snr, cfg.Scheme),
			Chain: &cfg,
		})
	}
	return out
}

// SchemeGrid returns the cross product of modulation schemes and UE
// counts over base: the scenario family behind scheme-robustness tables.
// Points the chain cannot schedule (e.g. NSC not divisible by a UE
// count) surface as per-scenario errors, not panics.
func SchemeGrid(base pusch.ChainConfig, schemes []waveform.Scheme, ues []int) []Scenario {
	var out []Scenario
	for _, scheme := range schemes {
		for _, nl := range ues {
			cfg := base
			cfg.Scheme = scheme
			cfg.NL = nl
			out = append(out, Scenario{
				Name:  fmt.Sprintf("%s-%due", scheme, nl),
				Chain: &cfg,
			})
		}
	}
	return out
}

// ClusterScaling returns one chain scenario per group count, scaling the
// cluster while keeping the workload fixed: the family behind
// cycles-versus-cores curves. The base cluster (default MemPool) provides
// the tile geometry; each point gets an independent copy named after its
// core count.
func ClusterScaling(base pusch.ChainConfig, groups []int) []Scenario {
	proto := base.Cluster
	if proto == nil {
		proto = arch.MemPool()
	}
	var out []Scenario
	for _, g := range groups {
		cl := *proto
		cl.Groups = g
		cl.Name = fmt.Sprintf("%s-g%d", proto.Name, g)
		cfg := base
		cfg.Cluster = &cl
		out = append(out, Scenario{
			Name:  fmt.Sprintf("cluster-%dcores", cl.NumCores()),
			Chain: &cfg,
		})
	}
	return out
}

// ProfileSweep returns one chain scenario per fading profile at the
// base operating point: the family behind channel-robustness
// comparisons (how BER/EVM move from the iid reference to the
// standardized TDL profiles). The base's Doppler, Rician K and fading
// seed carry over; only the profile varies.
func ProfileSweep(base pusch.ChainConfig, profiles []channel.Profile) []Scenario {
	var out []Scenario
	for _, p := range profiles {
		cfg := base
		cfg.Channel.Profile = p
		out = append(out, Scenario{
			Name:  fmt.Sprintf("profile-%s", p),
			Chain: &cfg,
		})
	}
	return out
}

// LinkCurves returns the profile x SNR cross product: one chain
// scenario per (fading profile, SNR point), the family behind
// BER-versus-SNR link curves over standardized channels. SNR points run
// from minDB to maxDB inclusive in stepDB increments (stepDB <= 0
// defaults to 2 dB); non-finite arguments or more than 1000 points per
// profile yield no scenarios. Scenarios are ordered profile-major, so
// each profile's curve is contiguous in the output stream.
func LinkCurves(base pusch.ChainConfig, profiles []channel.Profile, minDB, maxDB, stepDB float64) []Scenario {
	snrs := snrPoints(minDB, maxDB, stepDB)
	var out []Scenario
	for _, p := range profiles {
		for _, snr := range snrs {
			cfg := base
			cfg.Channel.Profile = p
			cfg.SNRdB = snr
			out = append(out, Scenario{
				Name:  fmt.Sprintf("%s/snr%+05.1fdB-%s", p, snr, cfg.Scheme),
				Chain: &cfg,
			})
		}
	}
	return out
}

// DefaultLayoutSplits proposes the (fft, bf, det) partition splits a
// layout sweep searches on one cluster: a deterministic ladder of
// power-of-two fractions of the core count, filtered to splits the
// chain can schedule (the FFT partition must host at least one
// NSC-point transform, nsc/16 lanes). Splits need not cover the
// cluster — leaving cores idle is part of the search space, since at
// small slot dimensions enrolling every core costs more barrier
// traffic than its work is worth.
func DefaultLayoutSplits(cluster *arch.Config, nsc int) [][3]int {
	c := cluster.NumCores()
	lanes := nsc / 16
	candidates := [][3]int{
		{c / 2, c / 4, c / 4}, // the stock pipelined split
		{c / 4, c / 8, c / 4},
		{c / 4, c / 8, c / 2},
		{c / 8, c / 8, c / 4},
		{c / 4, c / 4, c / 2},
		{c / 8, c / 16, c / 8},
	}
	var out [][3]int
	seen := make(map[[3]int]bool)
	for _, sp := range candidates {
		f, b, d := sp[0], sp[1], sp[2]
		if f < lanes || b <= 0 || d <= 0 || f+b+d > c || seen[sp] {
			continue
		}
		seen[sp] = true
		out = append(out, sp)
	}
	return out
}

// LayoutSweep returns the sequential reference plus one pipelined chain
// scenario per partition split: the family behind throughput-versus-
// layout comparisons of the spatially pipelined chain. splits nil uses
// DefaultLayoutSplits for the base cluster; splits the cluster cannot
// host are dropped (DefaultLayoutSplits never proposes one).
func LayoutSweep(base pusch.ChainConfig, splits [][3]int) []Scenario {
	proto := base.Cluster
	if proto == nil {
		proto = arch.MemPool()
	}
	if splits == nil {
		splits = DefaultLayoutSplits(proto, base.NSC)
	}
	seq := base
	seq.Layout = pusch.Sequential
	out := []Scenario{{Name: "layout-sequential", Chain: &seq}}
	for _, sp := range splits {
		lay, err := pusch.PipelinedSplit(proto, sp[0], sp[1], sp[2])
		if err != nil {
			continue
		}
		cfg := base
		cfg.Layout = lay
		out = append(out, Scenario{
			Name:  fmt.Sprintf("layout-%s", lay),
			Chain: &cfg,
		})
	}
	return out
}

// CholScheduleSweep returns one use-case scenario per Cholesky batching
// depth (the paper's green-versus-red schedule comparison, generalized),
// all on the same cluster.
func CholScheduleSweep(base pusch.UseCaseConfig, perRound []int) []Scenario {
	var out []Scenario
	for _, n := range perRound {
		cfg := base
		cfg.CholPerRound = n
		out = append(out, Scenario{
			Name:    fmt.Sprintf("usecase-chol%d", n),
			UseCase: &cfg,
		})
	}
	return out
}
