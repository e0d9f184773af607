package sched

import (
	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// DefaultQueueDepth is the bounded wait-queue capacity used when a
// Config does not set one: a handful of slots, enough to absorb jitter
// at moderate load but small enough that sustained overload drops
// visibly instead of building unbounded latency.
const DefaultQueueDepth = 8

// Job is one slot of offered traffic: the chain configuration to run
// and the simulated cycle at which the slot arrives at the basestation.
type Job struct {
	// Name labels the job in records ("poisson-042", a campaign scenario
	// name, or the spec's own name). Empty names stay empty.
	Name string
	// Arrival is the job's arrival time in simulated cycles at the
	// nominal 1 GHz clock (1e6 cycles per millisecond).
	Arrival int64
	// Chain is the slot to run. A zero Seed is replaced by a
	// deterministic per-job seed derived from Config.Seed and the job's
	// arrival-order index, so every slot carries distinct payload.
	Chain pusch.ChainConfig
}

// Config is the service discipline of a Scheduler.
type Config struct {
	// Servers is the number of virtual slot processors serving the queue
	// in simulated time (<= 0 means 1). Each server processes one slot
	// at a time; a cluster that pipelines S slots concurrently is
	// modeled as S servers.
	Servers int
	// QueueDepth bounds the wait queue: a job arriving when all servers
	// are busy and the queue holds QueueDepth jobs is dropped. Zero
	// means DefaultQueueDepth; negative means no queue at all (a pure
	// loss system).
	QueueDepth int
	// Workers is the host-side measurement fan-out (<= 0 means
	// GOMAXPROCS). It affects wall-clock time only, never results.
	Workers int
	// Seed is the fallback payload seed, mixed with each job's index for
	// jobs whose ChainConfig does not pin its own (0 means 1).
	Seed uint64
	// Cache, when non-nil, memoizes measured service times by scenario
	// coordinate (pusch.ChainConfig.CacheKey): phase-1 measurement
	// consults it before touching the machine pool and populates it on
	// miss. Because the simulator is deterministic a hit is exact, so
	// the cache changes wall-clock time only, never results. Jobs whose
	// configuration has no replayable coordinate bypass it.
	Cache *timecache.Cache
	// Model resolves jobs whose ChainConfig.Timing is analytic: their
	// service times are predictions of the calibrated closed-form
	// cycle model (internal/timing) instead of engine measurements,
	// their records are stamped timing="analytic", and the cache is
	// bypassed in both directions. Analytic jobs without a loaded
	// model surface as Failed. Cycle-accurate jobs never consult it.
	Model *timing.Model
	// Metrics, when non-nil, receives the run's deterministic metric
	// families (job outcomes, wait/sojourn histograms, queue depth,
	// cache and machine-pool traffic) for Prometheus exposition. Every
	// recorded value is a count or a simulated-cycle quantity, so a
	// snapshot after Serve is byte-identical across runs and worker
	// counts (host-side pool/cache counters excepted — they mirror
	// HostStats and vary with the fan-out). Nil records nothing.
	Metrics *obs.Registry
}

// Outcome classifies what the service did with one job.
type Outcome string

const (
	// Served jobs completed processing and carry a full JobRecord.
	Served Outcome = "served"
	// Dropped jobs found the bounded queue full on arrival.
	Dropped Outcome = "dropped"
	// Failed jobs were rejected at dispatch (invalid configuration) and
	// never occupied a server.
	Failed Outcome = "failed"
)

// JobResult is one job's fate, in arrival order. Record is only
// meaningful for Served jobs.
type JobResult struct {
	// Job is the arrival-order index; Name echoes the job's label.
	Job     int
	Name    string
	Arrival int64
	Outcome Outcome
	// Cell is the fleet cell the job was routed to (always 0 for a
	// standalone scheduler run).
	Cell int
	// Error describes a Failed job's rejection.
	Error string
	// ServiceCycles is the slot's measured chain time (set for served
	// jobs; also set for dropped jobs, whose measurement was discarded).
	ServiceCycles int64
	// OfferedBits is the slot's payload whether or not it was served:
	// a dropped job's measurement never reaches a JobRecord, but its
	// offered load still counts toward the summary (zero for Failed
	// jobs, which carry no measurement).
	OfferedBits int64
	// QueueDepth is the admitting cell's wait-queue length right after
	// the job's admission decision (zero for Failed jobs, which never
	// reach a queue).
	QueueDepth int
	// Record is the service-level telemetry record of a served job.
	Record report.JobRecord
}

// jobSeed derives the fallback per-job payload seed from the scheduler
// base and the job's arrival-order position, with the campaign runner's
// mixing. It only applies to jobs that did not pin a seed — generated
// traces and campaign adaptations (FromScenarios) pre-stamp theirs.
func jobSeed(base uint64, index int) uint64 {
	return campaign.DeriveSeed(base, index)
}
