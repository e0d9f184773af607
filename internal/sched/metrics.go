package sched

import (
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/report"
)

// Metric families recorded by the serving layers. The sched families
// carry a `cell` label inside a fleet and none standalone; the cache
// and pool families describe the host-side fast paths behind a run.
const (
	MetricJobsTotal     = "pusch_sched_jobs_total"
	MetricWaitCycles    = "pusch_sched_wait_cycles"
	MetricLatencyCycles = "pusch_sched_latency_cycles"
	MetricQueueDepth    = "pusch_sched_queue_depth"
	MetricOfferedBits   = "pusch_sched_offered_bits_total"
	MetricServedBits    = "pusch_sched_served_bits_total"
	MetricUtilization   = "pusch_sched_utilization"
	MetricCacheHits     = "pusch_cache_hits_total"
	MetricCacheMisses   = "pusch_cache_misses_total"
	MetricCacheEntries  = "pusch_cache_entries"
	MetricPoolBuilds    = "pusch_pool_machines_built_total"
	MetricPoolReuses    = "pusch_pool_machines_reused_total"
	MetricPoolPeak      = "pusch_pool_machines_peak"
	MetricPoolIdle      = "pusch_pool_machines_idle"
)

// cellLabels renders the optional cell label set ("" means standalone —
// no label, keeping the plain scheduler's families label-free).
func cellLabels(cell string) []string {
	if cell == "" {
		return nil
	}
	return []string{"cell", cell}
}

// withLabels returns base + extra as a fresh slice (never aliasing the
// base's backing array across series).
func withLabels(base []string, extra ...string) []string {
	out := make([]string, 0, len(base)+len(extra))
	out = append(out, base...)
	return append(out, extra...)
}

// RecordServiceMetrics folds one run's per-job outcomes and aggregate
// summary into the registry: outcome counters, wait/sojourn histograms
// over served jobs, the queue depth after each admission decision,
// payload counters and the utilization gauge. cell labels the series
// inside a fleet ("" for a standalone scheduler). The fleet layer reuses
// it per cell, so fleet and standalone runs expose the same families.
func RecordServiceMetrics(reg *obs.Registry, cell string, results []JobResult, sum *report.ServiceSummary) {
	if reg == nil {
		return
	}
	lb := cellLabels(cell)
	waitH := reg.Histogram(MetricWaitCycles, "queue wait of served jobs in simulated cycles", obs.DefaultCycleBuckets, lb...)
	latH := reg.Histogram(MetricLatencyCycles, "arrival-to-finish sojourn of served jobs in simulated cycles", obs.DefaultCycleBuckets, lb...)
	depthH := reg.Histogram(MetricQueueDepth, "wait-queue depth sampled at each admission decision, over virtual time", obs.DepthBuckets, lb...)
	for i := range results {
		r := &results[i]
		if r.Outcome == Failed {
			continue
		}
		depthH.Observe(int64(r.QueueDepth))
		if r.Outcome == Served {
			waitH.Observe(r.Record.WaitCycles)
			latH.Observe(r.Record.LatencyCycles)
		}
	}
	const jobsHelp = "slot jobs by final outcome"
	reg.Counter(MetricJobsTotal, jobsHelp, withLabels(lb, "outcome", "served")...).Add(int64(sum.Served))
	reg.Counter(MetricJobsTotal, jobsHelp, withLabels(lb, "outcome", "dropped")...).Add(int64(sum.Dropped))
	reg.Counter(MetricJobsTotal, jobsHelp, withLabels(lb, "outcome", "failed")...).Add(int64(sum.Failed))
	reg.Counter(MetricOfferedBits, "payload bits offered by arriving jobs", lb...).Add(sum.OfferedBits)
	reg.Counter(MetricServedBits, "payload bits of served jobs", lb...).Add(sum.ServedBits)
	reg.Gauge(MetricUtilization, "busy server-cycles over server capacity on the run horizon", lb...).Set(sum.Utilization)
}

// RecordHostMetrics folds the host-side fast-path picture — the
// service-time cache traffic attributed to one run and the simulator
// machine-pool occupancy behind it — into the registry. Unlike the
// service families these mirror HostStats/PoolStats: they describe the
// host, and the pool figures vary with the measurement worker count.
func RecordHostMetrics(reg *obs.Registry, host *report.HostStats, pool *engine.PoolStats, cacheEntries int) {
	if reg == nil {
		return
	}
	reg.Counter(MetricCacheHits, "service-time cache hits").Add(host.CacheHits)
	reg.Counter(MetricCacheMisses, "service-time cache misses").Add(host.CacheMisses)
	reg.Gauge(MetricCacheEntries, "service-time cache resident entries").SetInt(int64(cacheEntries))
	if pool == nil {
		return
	}
	reg.Counter(MetricPoolBuilds, "simulator machine arenas constructed").Add(pool.Builds)
	reg.Counter(MetricPoolReuses, "pool gets served by recycling an arena").Add(pool.Reuses)
	reg.Gauge(MetricPoolPeak, "peak simulator arenas simultaneously in use").SetInt(pool.Peak)
	reg.Gauge(MetricPoolIdle, "simulator arenas parked for reuse").SetInt(int64(pool.Idle))
}
