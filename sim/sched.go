package sim

import (
	"repro/internal/campaign"
	"repro/internal/channel"
	"repro/internal/pusch"
	"repro/internal/sched"
)

// Slot-traffic scheduler re-exports: the streaming basestation layer
// that serves a trace of slot jobs through a bounded queue on pooled
// simulator machines and reports service-level metrics. See
// internal/sched for the full model (deterministic two-phase G/D/c/K
// queue) and cmd/puschd for the server binary.
type (
	// SlotJob is one slot of offered traffic: a chain configuration plus
	// an arrival cycle.
	SlotJob = sched.Job
	// ServiceConfig is the service discipline (servers, queue depth,
	// measurement workers, base seed).
	ServiceConfig = sched.Config
	// Scheduler serves job traces deterministically.
	Scheduler = sched.Scheduler
	// MixEntry is one weighted configuration of a blended traffic mix.
	MixEntry = sched.MixEntry
)

// MobileChain converts a chain configuration into its mobile-UE
// variant (fading over the named profile at dopplerHz): traces
// generated from it attach per-UE evolving link state to every job.
func MobileChain(base pusch.ChainConfig, profile channel.Profile, dopplerHz, ricianK float64) pusch.ChainConfig {
	return sched.Mobile(base, profile, dopplerHz, ricianK)
}

// PoissonTrace draws n slot jobs with memoryless arrivals at ratePerMs
// slots per millisecond of simulated time.
func PoissonTrace(base pusch.ChainConfig, n int, ratePerMs float64, seed uint64) []SlotJob {
	return sched.PoissonTrace(base, n, ratePerMs, seed)
}

// TableIMix returns the paper's Table I 1/2/4-UE use-case blend, scaled
// to the functional chain's dimensions (nil uses the default base).
func TableIMix(override *pusch.ChainConfig) []MixEntry {
	return sched.TableIMix(override)
}

// JobsFromScenarios adapts a campaign scenario family into a slot
// trace, one job per chain scenario arriving every spacingCycles, with
// payload seeds pinned as a campaign run with base seed baseSeed would
// assign them; the second result counts skipped non-chain scenarios.
func JobsFromScenarios(scenarios []campaign.Scenario, spacingCycles int64, baseSeed uint64) ([]SlotJob, int) {
	return sched.FromScenarios(scenarios, spacingCycles, baseSeed)
}
