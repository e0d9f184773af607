package sched

import (
	"slices"

	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
)

// tally folds job results into a service summary as they are emitted.
// Counts, sums and extremes fold as they come and served waits and
// latencies are kept, 16 bytes per served job, for exact percentiles:
// nothing depends on the fold order.
type tally struct {
	jobs, served, dropped, failed, analytic int
	offeredBits, servedBits, busy           int64
	waitSum, latSum, maxWait, maxLat        int64
	firstArrival, lastEvent                 int64
	waits, lats                             []int64
}

// add folds one final result.
func (t *tally) add(r *JobResult) {
	if t.jobs == 0 || r.Arrival < t.firstArrival {
		t.firstArrival = r.Arrival
	}
	t.jobs++
	t.lastEvent = max(t.lastEvent, r.Arrival)
	switch r.Outcome {
	case Served:
		rec := &r.Record
		t.served++
		if rec.Timing == string(pusch.TimingAnalytic) {
			t.analytic++
		}
		t.offeredBits += rec.PayloadBits
		t.servedBits += rec.PayloadBits
		t.busy += r.ServiceCycles
		t.waitSum += rec.WaitCycles
		t.latSum += rec.LatencyCycles
		t.waits = append(t.waits, rec.WaitCycles)
		t.lats = append(t.lats, rec.LatencyCycles)
		t.maxWait = max(t.maxWait, rec.WaitCycles)
		t.maxLat = max(t.maxLat, rec.LatencyCycles)
		t.lastEvent = max(t.lastEvent, rec.FinishCycle)
	case Dropped:
		t.dropped++
		// A dropped slot's payload was offered but never served.
		t.offeredBits += r.OfferedBits
	case Failed:
		t.failed++
	}
}

// Summarize computes the aggregate service picture from per-job
// results; a dropped job's OfferedBits supplies the offered payload of
// its discarded measurement, which never reached a JobRecord. It is the
// fold a serve applies to each cell as it emits results, over a slice.
func Summarize(results []JobResult, servers, queueCap int) report.ServiceSummary {
	var t tally
	for i := range results {
		t.add(&results[i])
	}
	return summarize([]tally{t}, servers, queueCap)
}

// summarize computes the service picture of the union of the tallies'
// jobs, served by servers servers behind a queue of queueCap. It sorts
// each tally's waits and latencies in place.
func summarize(ts []tally, servers, queueCap int) report.ServiceSummary {
	var all tally
	var waits, lats [][]int64
	for i := range ts {
		t := &ts[i]
		if t.jobs == 0 {
			continue
		}
		if all.jobs == 0 || t.firstArrival < all.firstArrival {
			all.firstArrival = t.firstArrival
		}
		all.jobs += t.jobs
		all.served += t.served
		all.dropped += t.dropped
		all.failed += t.failed
		all.analytic += t.analytic
		all.offeredBits += t.offeredBits
		all.servedBits += t.servedBits
		all.busy += t.busy
		all.waitSum += t.waitSum
		all.latSum += t.latSum
		all.maxWait = max(all.maxWait, t.maxWait)
		all.maxLat = max(all.maxLat, t.maxLat)
		all.lastEvent = max(all.lastEvent, t.lastEvent)
		slices.Sort(t.waits)
		slices.Sort(t.lats)
		waits = append(waits, t.waits)
		lats = append(lats, t.lats)
	}
	sum := report.ServiceSummary{
		Kind:             "summary",
		Jobs:             all.jobs,
		Served:           all.served,
		Dropped:          all.dropped,
		Failed:           all.failed,
		Servers:          servers,
		QueueDepth:       queueCap,
		OfferedBits:      all.offeredBits,
		ServedBits:       all.servedBits,
		MaxWaitCycles:    all.maxWait,
		MaxLatencyCycles: all.maxLat,
	}
	// A run whose every served record came from the analytic model is
	// itself analytic: the summary carries the stamp so downstream
	// consumers never mistake predicted service figures for measured
	// ones. Mixed runs stay unstamped (their per-record stamps tell).
	if sum.Served > 0 && all.analytic == sum.Served {
		sum.Timing = string(pusch.TimingAnalytic)
	}
	sum.HorizonCycles = all.lastEvent - all.firstArrival
	sum.HorizonMs = float64(sum.HorizonCycles) / CyclesPerMs
	if sum.HorizonCycles > 0 {
		sum.OfferedGbps = report.Gbps(sum.OfferedBits, sum.HorizonCycles)
		sum.ServedGbps = report.Gbps(sum.ServedBits, sum.HorizonCycles)
		sum.Utilization = float64(all.busy) / (float64(servers) * float64(sum.HorizonCycles))
	}
	if n := sum.Served; n > 0 {
		sum.MeanWaitCycles = float64(all.waitSum) / float64(n)
		sum.MeanLatencyCycles = float64(all.latSum) / float64(n)
		sum.WaitP50Cycles = nth(waits, obs.PercentileRank(n, 50))
		sum.WaitP95Cycles = nth(waits, obs.PercentileRank(n, 95))
		sum.WaitP99Cycles = nth(waits, obs.PercentileRank(n, 99))
		sum.LatencyP50Cycles = nth(lats, obs.PercentileRank(n, 50))
		sum.LatencyP95Cycles = nth(lats, obs.PercentileRank(n, 95))
		sum.LatencyP99Cycles = nth(lats, obs.PercentileRank(n, 99))
	}
	if sum.Jobs > 0 {
		sum.DropRate = float64(sum.Dropped) / float64(sum.Jobs)
	}
	return sum
}

// nth returns the rank-th smallest value (1-based) of the union of
// ascending lists, walking them merged without copying.
func nth(lists [][]int64, rank int) int64 {
	if len(lists) == 1 {
		return lists[0][rank-1]
	}
	at := make([]int, len(lists))
	var v int64
	for ; rank > 0; rank-- {
		best := -1
		for l, s := range lists {
			if at[l] < len(s) && (best < 0 || s[at[l]] < lists[best][at[best]]) {
				best = l
			}
		}
		v = lists[best][at[best]]
		at[best]++
	}
	return v
}
