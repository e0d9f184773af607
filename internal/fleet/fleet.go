package fleet

import (
	"io"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// Cell is one basestation cell of a fleet: a serving class (cluster
// geometry, stage layout, timing mode) plus its own service discipline
// (virtual slot servers and bounded wait queue). The zero value is the
// plain scheduler's cell: stock MemPool cluster, sequential layout,
// cycle-accurate timing, one server, the default queue depth.
//
// A cell's serving class applies to a routed job as defaults only —
// jobs that pin their own cluster, a pipelined layout, or a timing
// mode keep them — so a single-cell fleet of the zero Cell serves any
// trace byte-identically to the standalone scheduler.
type Cell struct {
	// Name labels the cell in per-cell summaries ("macro-0", "pico-2");
	// empty names stay empty.
	Name string
	// Cluster is the cell's cluster geometry for jobs that do not pin
	// one (nil means the measurement default, stock MemPool).
	Cluster *arch.Config
	// Layout is the cell's stage layout for jobs that do not pin a
	// pipelined one (the zero Layout is the sequential schedule).
	Layout pusch.Layout
	// Timing is the cell's timing mode for jobs that do not pin one
	// (the zero mode is cycle-accurate).
	Timing pusch.TimingMode
	// Servers is the cell's virtual slot-processor count (<= 0 means 1);
	// QueueDepth bounds its wait queue (0 means sched.DefaultQueueDepth,
	// negative means no queue at all), exactly as in sched.Config.
	Servers    int
	QueueDepth int
}

// apply resolves a routed job's serving coordinates against the cell:
// unpinned coordinates inherit the cell's, pinned ones win.
func (c *Cell) apply(cfg pusch.ChainConfig) pusch.ChainConfig {
	if cfg.Cluster == nil {
		cfg.Cluster = c.Cluster
	}
	if !cfg.Layout.Pipelined() && c.Layout.Pipelined() {
		cfg.Layout = c.Layout
	}
	if cfg.Timing == pusch.TimingCycleAccurate {
		cfg.Timing = c.Timing
	}
	return cfg
}

// classKey is the cell's serving-class identity: two cells with equal
// keys transform every job identically, so their measurements are
// shared. The cluster part is the timing fingerprint (ArchFingerprint),
// never the name, so lookalike geometries can't alias.
func (c *Cell) classKey() string {
	fp := ""
	if c.Cluster != nil {
		fp = pusch.ArchFingerprint(c.Cluster)
	}
	return fp + "|" + c.Layout.String() + "|" + string(c.Timing)
}

// Config is a fleet deployment: the cells, the routing policy, and the
// shared serving machinery (measurement fan-out, payload seeding, and
// the sched fast paths, which apply per cell exactly as they do to a
// standalone scheduler).
type Config struct {
	// Cells is the deployment (empty means one zero-value cell).
	Cells []Cell
	// Policy routes arrivals over the cells ("" means round-robin).
	Policy Policy
	// Workers is the host-side measurement fan-out (<= 0 means
	// GOMAXPROCS). It affects wall-clock time only, never results.
	Workers int
	// Seed is the fallback payload seed for jobs that do not pin one,
	// applied by arrival-order position exactly as sched.Config.Seed.
	Seed uint64
	// Cache and Model are the PR 6 / PR 7 fast paths, shared by every
	// cell's measurements (see sched.Config).
	Cache *timecache.Cache
	Model *timing.Model
	// Metrics, when non-nil, receives the fleet's deterministic metric
	// families: the sched families labeled per cell (cell="0", …), the
	// per-cell handover counters, and the shared cache/pool families.
	// Nil records nothing (see sched.Config.Metrics).
	Metrics *obs.Registry
}

// Fleet serves slot-traffic traces across the configured cells. The
// zero value is usable: one default cell, round-robin routing.
type Fleet struct {
	Cfg Config

	// measure is the per-job measurement hook; nil runs the real chain
	// on a pooled machine. Tests stub it to probe routing and queueing
	// with synthetic service times.
	measure sched.MeasureFunc
}

// Serve runs the whole trace across the fleet and returns per-job
// results in arrival order plus the fleet summary (with every cell's
// ServiceSummary in PerCell). The cells become sched.ServeCells' cells,
// their deduplicated serving classes its classes and the policy its
// route. Individual job failures are reported per job; Serve itself
// never fails.
func (f *Fleet) Serve(jobs []sched.Job) ([]sched.JobResult, report.FleetSummary) {
	cells := f.Cfg.Cells
	if len(cells) == 0 {
		cells = []Cell{{}}
	}
	classes, queues := serving(cells)
	shared := sched.Config{Workers: f.Cfg.Workers, Seed: f.Cfg.Seed, Cache: f.Cfg.Cache, Model: f.Cfg.Model}
	run := sched.ServeCells(shared, f.measure, jobs, classes, queues, f.route(len(cells)))
	handoversTo := handovers(jobs, &run, len(cells))
	sum := f.summarize(cells, jobs, &run, handoversTo)
	if reg := f.Cfg.Metrics; reg != nil {
		f.recordMetrics(reg, &run, &sum, handoversTo)
	}
	return run.Results, sum
}

// WriteJSONL serves the trace and streams one JobRecord JSON line per
// served job (arrival order), then one summary line per cell, then the
// fleet summary line (kind="fleet-summary"). A single-cell fleet
// degenerates to the plain scheduler's wire format — one kind="summary"
// line, no fleet line. Output is byte-identical across runs and worker
// counts for the same trace and configuration.
func (f *Fleet) WriteJSONL(w io.Writer, jobs []sched.Job) (report.FleetSummary, error) {
	results, sum := f.Serve(jobs)
	trailer := make([]any, 0, len(sum.PerCell)+1)
	for c := range sum.PerCell {
		trailer = append(trailer, &sum.PerCell[c])
	}
	if sum.Cells > 1 {
		// Pool and host stats vary with the host worker count and wall
		// clock; the stream's byte-determinism contract excludes them
		// (callers read them off the returned summary instead).
		wire := sum
		wire.PerCell, wire.Pool, wire.Host = nil, nil, nil
		trailer = append(trailer, &wire)
	}
	return sum, sched.WriteServed(w, results, trailer...)
}

// serving turns the cells into sched's serving classes and queues.
// Cells with equal class keys share one class, so a homogeneous N-cell
// fleet costs exactly one measurement pass.
func serving(cells []Cell) ([]sched.Class, []sched.Queue) {
	var classes []sched.Class
	keys := map[string]int{}
	queues := make([]sched.Queue, len(cells))
	for c := range cells {
		key := cells[c].classKey()
		cls, ok := keys[key]
		if !ok {
			cls = len(classes)
			keys[key] = cls
			classes = append(classes, cells[c].apply)
		}
		queues[c] = sched.Queue{Class: cls, Servers: cells[c].Servers, QueueDepth: cells[c].QueueDepth}
	}
	return classes, queues
}

// handovers counts, by destination cell, the served slots of mobile UEs
// that land on a different cell than the UE's previous served slot.
// Dropped and failed slots never occupied a cell, so they never move the
// UE.
func handovers(jobs []sched.Job, run *sched.Run, n int) []int {
	to := make([]int, n)
	last := make(map[uint64]int)
	for pos, ji := range run.Order {
		r := &run.Results[pos]
		seed := jobs[ji].Chain.Channel.Seed
		if r.Outcome != sched.Served || seed == 0 {
			continue
		}
		if prev, ok := last[seed]; ok && prev != r.Cell {
			to[r.Cell]++
		}
		last[seed] = r.Cell
	}
	return to
}

// summarize aggregates the served fleet: the per-cell summaries of the
// run (each over exactly its routed jobs, so per-cell counters sum to
// the fleet's) plus the fleet-wide traffic picture over every job and
// every cell's servers.
func (f *Fleet) summarize(cells []Cell, jobs []sched.Job, run *sched.Run, handoversTo []int) report.FleetSummary {
	n := len(cells)
	servers := 0
	for c := range run.Cells {
		cs := &run.Cells[c]
		if n > 1 {
			cs.Kind = "cell-summary"
			cs.Cell = c
		}
		cs.Name = cells[c].Name
		servers += cs.Servers
	}
	all := sched.Summarize(run.Results, servers, 0)
	sum := report.FleetSummary{
		Kind:             "fleet-summary",
		Cells:            n,
		Policy:           string(f.Cfg.Policy),
		Timing:           all.Timing,
		Jobs:             all.Jobs,
		Served:           all.Served,
		Dropped:          all.Dropped,
		Failed:           all.Failed,
		HorizonCycles:    all.HorizonCycles,
		HorizonMs:        all.HorizonMs,
		OfferedBits:      all.OfferedBits,
		ServedBits:       all.ServedBits,
		OfferedGbps:      all.OfferedGbps,
		ServedGbps:       all.ServedGbps,
		Utilization:      all.Utilization,
		DropRate:         all.DropRate,
		WaitP50Cycles:    all.WaitP50Cycles,
		WaitP95Cycles:    all.WaitP95Cycles,
		WaitP99Cycles:    all.WaitP99Cycles,
		LatencyP50Cycles: all.LatencyP50Cycles,
		LatencyP95Cycles: all.LatencyP95Cycles,
		LatencyP99Cycles: all.LatencyP99Cycles,
		PerCell:          run.Cells,
		Pool:             run.Pool,
		Host:             run.Host,
	}
	if sum.Policy == "" {
		sum.Policy = string(RoundRobin)
	}
	for _, h := range handoversTo {
		sum.Handovers += h
	}
	ues := make(map[uint64]struct{})
	for i := range jobs {
		if seed := jobs[i].Chain.Channel.Seed; seed != 0 {
			ues[seed] = struct{}{}
		}
	}
	sum.MobileUEs = len(ues)
	return sum
}
