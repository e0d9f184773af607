package fleet

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
)

// Fleet-specific metric families; the per-cell service families reuse
// the sched names with a `cell` label (see sched.RecordServiceMetrics).
const (
	MetricHandovers = "pusch_fleet_handovers_total"
	MetricCells     = "pusch_fleet_cells"
	MetricMobileUEs = "pusch_fleet_mobile_ues"
)

// recordMetrics folds one fleet run into the registry: the sched
// service families once per cell (labeled cell="0", …, so a fleet and a
// standalone scheduler expose the same family names), the
// per-destination-cell handover counters, the fleet-shape gauges, and
// the shared cache/pool host families. Handover counters are registered
// for every cell even when zero, so the family always appears in the
// exposition.
func (f *Fleet) recordMetrics(reg *obs.Registry, run *sched.Run, sum *report.FleetSummary, handoversTo []int) {
	for c := range sum.PerCell {
		cell := strconv.Itoa(c)
		sched.RecordServiceMetrics(reg, cell, run.PerCell[c], &sum.PerCell[c])
		reg.Counter(MetricHandovers, "mobile-UE handovers by destination cell", "cell", cell).Add(int64(handoversTo[c]))
	}
	reg.Gauge(MetricCells, "cells in the fleet deployment").SetInt(int64(len(sum.PerCell)))
	reg.Gauge(MetricMobileUEs, "distinct mobile-UE fading identities in the served trace").SetInt(int64(sum.MobileUEs))
	sched.RecordHostMetrics(reg, run.Host, run.Pool, run.CacheEntries)
}
