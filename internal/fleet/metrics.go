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

// metrics is a fleet's metric families: the sched service families
// once per cell (labeled cell="0", …, so a fleet and a standalone
// scheduler expose the same family names), the per-destination-cell
// handover counters, the fleet-shape gauges, and the shared cache/pool
// host families. Every series is registered before serving and each
// job folds in as it is emitted; handover counters exist for every cell
// even when zero, so the family always appears in the exposition.
// Without a registry every instrument is nil and records nothing.
type metrics struct {
	reg       *obs.Registry
	cells     []*sched.ServiceMetrics
	handovers []*obs.Counter
}

// newMetrics registers the families of an n-cell fleet serving a trace
// of mobileUEs distinct mobile UEs in reg.
func newMetrics(reg *obs.Registry, n, mobileUEs int) *metrics {
	m := &metrics{reg: reg}
	for c := 0; c < n; c++ {
		cell := strconv.Itoa(c)
		m.cells = append(m.cells, sched.NewServiceMetrics(reg, cell))
		m.handovers = append(m.handovers, reg.Counter(MetricHandovers, "mobile-UE handovers by destination cell", "cell", cell))
	}
	reg.Gauge(MetricCells, "cells in the fleet deployment").SetInt(int64(n))
	reg.Gauge(MetricMobileUEs, "distinct mobile-UE fading identities in the served trace").SetInt(int64(mobileUEs))
	return m
}

// observe folds one emitted job; moved marks a handover onto its cell.
func (m *metrics) observe(r *sched.JobResult, moved bool) {
	m.cells[r.Cell].Observe(r)
	if moved {
		m.handovers[r.Cell].Inc()
	}
}

// finish folds the end-of-serve figures: each cell's utilization and
// the host families.
func (m *metrics) finish(sum *report.FleetSummary, run *sched.Run) {
	for c := range m.cells {
		m.cells[c].Finish(&sum.PerCell[c])
	}
	sched.RecordHostMetrics(m.reg, run.Host, run.Pool, run.CacheEntries)
}
