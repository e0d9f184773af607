package pusch

import (
	"repro/internal/campaign"
	"repro/internal/timecache"
	"repro/waveform"
)

// Campaign engine re-exports: a Scenario names one configuration variant
// of the chain or the use case, generators build whole families, and the
// Runner executes them in parallel on pooled simulator machines with
// deterministic results. See internal/campaign for the full contract.
type (
	// Scenario is one named campaign point (a ChainConfig or
	// UseCaseConfig variant).
	Scenario = campaign.Scenario
	// Runner fans scenarios out across host goroutines with one pooled
	// machine per worker.
	Runner = campaign.Runner
	// ServiceCache memoizes chain service times by scenario coordinate
	// (ChainConfig.CacheKey); hand one to Runner.Cache to make repeated
	// coordinates near-free without changing a single output byte. See
	// internal/timecache for the LRU and persistence contract.
	ServiceCache = timecache.Cache
)

// NewServiceCache returns an empty service-time cache holding at most
// capacity entries (<= 0 uses the package default).
func NewServiceCache(capacity int) *ServiceCache {
	return timecache.New(capacity)
}

// SNRSweep generates one chain scenario per SNR point in [minDB, maxDB].
func SNRSweep(base ChainConfig, minDB, maxDB, stepDB float64) []Scenario {
	return campaign.SNRSweep(base, minDB, maxDB, stepDB)
}

// SchemeGrid generates the modulation-scheme x UE-count cross product.
func SchemeGrid(base ChainConfig, schemes []waveform.Scheme, ues []int) []Scenario {
	return campaign.SchemeGrid(base, schemes, ues)
}

// ClusterScaling generates one chain scenario per cluster group count.
func ClusterScaling(base ChainConfig, groups []int) []Scenario {
	return campaign.ClusterScaling(base, groups)
}

// CholScheduleSweep generates one use-case scenario per Cholesky batch
// depth.
func CholScheduleSweep(base UseCaseConfig, perRound []int) []Scenario {
	return campaign.CholScheduleSweep(base, perRound)
}

// LayoutSweep generates the sequential reference plus one pipelined
// chain scenario per (fft, bf, det) partition split; nil splits uses
// the default ladder for the base cluster.
func LayoutSweep(base ChainConfig, splits [][3]int) []Scenario {
	return campaign.LayoutSweep(base, splits)
}
