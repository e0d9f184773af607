package sim

import (
	"io"

	"repro/internal/campaign"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/report"
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
	// SlotJobSpec is the JSONL wire form of one slot job.
	SlotJobSpec = sched.Spec
	// ServiceConfig is the service discipline (servers, queue depth,
	// measurement workers, base seed).
	ServiceConfig = sched.Config
	// Scheduler serves job traces deterministically.
	Scheduler = sched.Scheduler
	// SlotJobResult is one job's fate in arrival order.
	SlotJobResult = sched.JobResult
	// SlotOutcome classifies a job: served, dropped or failed.
	SlotOutcome = sched.Outcome
	// MixEntry is one weighted configuration of a blended traffic mix.
	MixEntry = sched.MixEntry
	// JobRecord is the service-level telemetry record of one served job
	// (a SlotRecord plus queue coordinates).
	JobRecord = report.JobRecord
	// ServiceSummary aggregates one service run (offered/served Gb/s,
	// queue waits, drops, utilization).
	ServiceSummary = report.ServiceSummary
	// PoolStats is the machine-pool occupancy picture.
	PoolStats = engine.PoolStats
)

// DefaultUEPopulation is the number of distinct mobile-UE fading
// identities generated traffic cycles through.
const DefaultUEPopulation = sched.DefaultUEPopulation

// Job outcomes.
const (
	JobServed  = sched.Served
	JobDropped = sched.Dropped
	JobFailed  = sched.Failed
)

// DefaultQueueDepth is the scheduler's default bounded-queue capacity.
const DefaultQueueDepth = sched.DefaultQueueDepth

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

// BurstyTrace draws n jobs as on/off bursts of burst slots separated by
// exponential gaps with mean gapMs milliseconds.
func BurstyTrace(base pusch.ChainConfig, n, burst int, ratePerMs, gapMs float64, seed uint64) []SlotJob {
	return sched.BurstyTrace(base, n, burst, ratePerMs, gapMs, seed)
}

// MixedTrace draws n jobs from a weighted configuration mix with
// Poisson arrivals.
func MixedTrace(mix []MixEntry, n int, ratePerMs float64, seed uint64) []SlotJob {
	return sched.MixedTrace(mix, n, ratePerMs, seed)
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

// ReadSlotJobs parses a JSONL job-spec stream, zero fields inheriting
// from defaults.
func ReadSlotJobs(r io.Reader, defaults pusch.ChainConfig) ([]SlotJob, error) {
	return sched.ReadJobs(r, defaults)
}

// WriteSlotJobSpecs serializes a trace as replayable JSONL specs.
func WriteSlotJobSpecs(w io.Writer, jobs []SlotJob) error {
	return sched.WriteSpecs(w, jobs)
}
