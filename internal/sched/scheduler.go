package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// Scheduler admits a trace of slot jobs and serves it through the
// configured discipline. The zero value is usable: one server, the
// default queue depth, GOMAXPROCS measurement workers.
type Scheduler struct {
	Cfg Config

	// measure is the per-job measurement hook; nil runs the real chain
	// on a pooled machine. Tests stub it to probe the queueing
	// discipline with synthetic service times.
	measure MeasureFunc
}

// MeasureFunc measures one fully stamped slot configuration on a
// machine from the pool. The production implementation runs the real
// chain; tests substitute synthetic service times.
type MeasureFunc func(pool *engine.Machines, cfg pusch.ChainConfig) (report.SlotRecord, error)

// measureChain is the production measurement: one chain run on a
// machine recycled through the worker's pool shard.
func measureChain(pool *engine.Machines, cfg pusch.ChainConfig) (report.SlotRecord, error) {
	if cfg.Cluster == nil {
		cfg.Cluster = arch.MemPool()
	}
	// Validate before pool.Get: NewMachine panics on broken cluster
	// configs, and a bad job must surface as a Failed result, not abort
	// the service.
	if err := cfg.Cluster.Validate(); err != nil {
		return report.SlotRecord{}, err
	}
	m := pool.Get(cfg.Cluster)
	rec, err := pusch.RunChainRecordOn(m, cfg)
	pool.Put(m)
	return rec, err
}

// Resolve measures one fully stamped slot configuration through the
// service fast paths, in precedence order: the calibrated analytic
// model (for jobs whose Timing asks for it), the service-time cache,
// then the engine via measure (nil means the production chain). It is
// the single resolution path shared by the scheduler and the fleet
// layer, so every serving stack composes identically with the cache
// and the analytic mode.
//
// Analytic jobs resolve against the model before — and entirely
// instead of — the cache and the machine pool; their stamped records
// can never enter the cache (CacheKey refuses them, and timecache.Add
// refuses stamped records). A cache-key derivation error (invalid
// config, non-canonical layout) bypasses the cache entirely: invalid
// configs still surface as errors from the measurement itself, and
// unkeyable-but-valid ones are simply measured every time.
func Resolve(pool *engine.Machines, cfg pusch.ChainConfig, cache *timecache.Cache, model *timing.Model, measure MeasureFunc) (report.SlotRecord, error) {
	if measure == nil {
		measure = measureChain
	}
	if cfg.Timing == pusch.TimingAnalytic {
		if model == nil {
			return report.SlotRecord{}, fmt.Errorf("sched: analytic timing requested but no calibration model is loaded (Config.Model)")
		}
		return model.Predict(cfg)
	}
	key := ""
	if cache != nil {
		if k, err := cfg.CacheKey(); err == nil {
			key = k
			if rec, ok := cache.Lookup(key); ok {
				return rec, nil
			}
		}
	}
	rec, err := measure(pool, cfg)
	if key != "" && err == nil {
		cache.Add(key, rec)
	}
	return rec, err
}

// Serve runs the whole trace and returns per-job results in arrival
// order plus the aggregate service summary: the one-class, one-cell case
// of ServeCells. Individual job failures are reported per job; Serve
// itself never fails.
func (s *Scheduler) Serve(jobs []Job) ([]JobResult, report.ServiceSummary) {
	run := ServeCells(s.Cfg, s.measure, jobs, nil, []Queue{{Servers: s.Cfg.Servers, QueueDepth: s.Cfg.QueueDepth}}, nil)
	sum := run.Cells[0]
	sum.Pool, sum.Host = run.Pool, run.Host
	if reg := s.Cfg.Metrics; reg != nil {
		RecordServiceMetrics(reg, "", run.Results, &sum)
		RecordHostMetrics(reg, run.Host, run.Pool, run.CacheEntries)
	}
	return run.Results, sum
}

// WriteJSONL serves the trace and streams one JobRecord JSON line per
// served job (arrival order) followed by one final summary line tagged
// kind="summary". Output is byte-identical across runs and worker
// counts for the same trace and configuration.
func (s *Scheduler) WriteJSONL(w io.Writer, jobs []Job) (report.ServiceSummary, error) {
	results, sum := s.Serve(jobs)
	// The pool and host stats vary with the host worker count and wall
	// clock; the stream's byte-determinism contract excludes them
	// (callers read them off the returned summary instead).
	wire := sum
	wire.Pool, wire.Host = nil, nil
	return sum, WriteServed(w, results, &wire)
}

// WriteServed streams one JobRecord JSON line per served result, in
// result order, then one line per trailer value (the summaries). It is
// the wire encoder of every serving stack.
func WriteServed(w io.Writer, results []JobResult, trailer ...any) error {
	enc := json.NewEncoder(w)
	for i := range results {
		if results[i].Outcome != Served {
			continue
		}
		if err := enc.Encode(&results[i].Record); err != nil {
			return err
		}
	}
	for _, line := range trailer {
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// Class is a serving class: the coordinates a cell stamps onto a job's
// chain before it is resolved (nil keeps the chain as it is). Every job
// is measured once per class, however many cells share the class.
type Class func(pusch.ChainConfig) pusch.ChainConfig

// Queue is one cell of a serve: the index of its serving class and its
// service discipline, defaulted as in Config (Servers <= 0 means 1;
// QueueDepth 0 means DefaultQueueDepth, negative means no queue).
type Queue struct {
	Class, Servers, QueueDepth int
}

// Route picks the cell that admits the job at arrival-order position
// pos, reading the replay only through r. It is called once per job in
// arrival order, failing jobs included, after every cell has completed
// its work up to the job's arrival. A nil Route admits every job to
// cell 0.
type Route func(r *Replay, pos int, job *Job) int

// Run is the outcome of ServeCells.
type Run struct {
	// Results holds every job's fate in arrival order; Order[pos] is the
	// input index of the job at arrival-order position pos.
	Results []JobResult
	Order   []int
	// PerCell splits Results by admitting cell (arrival order within
	// each), and Cells summarizes each split under its cell's discipline.
	PerCell [][]JobResult
	Cells   []report.ServiceSummary
	// The host side of the serve: machine-pool occupancy, wall clock and
	// cache traffic, and the cache's resident entries afterwards. These
	// vary with the host and the worker count, never with the results.
	Pool         *engine.PoolStats
	Host         *report.HostStats
	CacheEntries int
}

// measured is one (serving class, job) phase-1 outcome.
type measured struct {
	rec report.SlotRecord
	err error
}

// cellState is one cell's replay state.
type cellState struct {
	class, servers, queueCap int
	// free holds each server's next-free cycle. Only min(servers, jobs)
	// servers exist: the lowest-index server among those free earliest
	// always wins, so a server whose index is the job count or higher is
	// never chosen.
	free  []int64
	queue []int // waiting jobs, arrival-order positions
}

// earliest returns the server that frees first (lowest index on ties).
func (st *cellState) earliest() (srv int, at int64) {
	srv, at = 0, st.free[0]
	for i := 1; i < len(st.free); i++ {
		if st.free[i] < at {
			srv, at = i, st.free[i]
		}
	}
	return srv, at
}

// Replay is the virtual-time state of a serve in progress, read by a
// Route through Backlog and Failed.
type Replay struct {
	cells   []cellState
	meas    [][]measured // [class][arrival-order position]
	results []JobResult
}

// Backlog is cell c's load at cycle at: its queued jobs plus its
// servers still busy then.
func (r *Replay) Backlog(c int, at int64) int {
	st := &r.cells[c]
	load := len(st.queue)
	for _, t := range st.free {
		if t > at {
			load++
		}
	}
	return load
}

// Failed reports whether cell c's serving class failed to measure the
// job at arrival-order position pos.
func (r *Replay) Failed(c, pos int) bool {
	return r.meas[r.cells[c].class][pos].err != nil
}

// start runs job pos on cell c's server srv from cycle at.
func (r *Replay) start(c, pos, srv int, at int64) {
	st := &r.cells[c]
	res := &r.results[pos]
	finish := at + res.ServiceCycles
	st.free[srv] = finish
	res.Outcome = Served
	res.Record = report.JobRecord{
		Job:           pos,
		Name:          res.Name,
		Cell:          c,
		SlotRecord:    r.meas[st.class][pos].rec,
		ArrivalCycle:  res.Arrival,
		StartCycle:    at,
		FinishCycle:   finish,
		WaitCycles:    at - res.Arrival,
		LatencyCycles: finish - res.Arrival,
	}
}

// drain starts cell c's queued jobs as its servers free: those whose
// server frees by cycle until, or every one of them when final is set.
func (r *Replay) drain(c int, until int64, final bool) {
	st := &r.cells[c]
	for len(st.queue) > 0 {
		srv, at := st.earliest()
		if !final && at > until {
			return
		}
		r.start(c, st.queue[0], srv, at)
		st.queue = st.queue[1:]
	}
}

// ServeCells is the one serving loop, behind Scheduler and fleet.Fleet.
// Phase 1 measures every job under every serving class across
// cfg.Workers goroutines over a sharded machine pool, each through
// Resolve (cfg.Cache, cfg.Model, then measure; nil measure runs the
// chain). Phase 2 replays the arrivals serially in virtual time: at each
// arrival every cell completes its work up to that instant, route picks
// a cell, and the cell admits the job under a G/D/c/K discipline —
// earliest free server (lowest index on ties), FIFO bounded queue, drop
// on overflow. Routing reads only the replay and the job, so results
// never depend on measurement order or worker count.
//
// cfg supplies the shared machinery (Workers, Seed, Cache, Model); each
// cell carries its own discipline and the caller folds metrics from the
// Run, so cfg.Servers, cfg.QueueDepth and cfg.Metrics are not read.
// cells must be non-empty; empty classes means one class that keeps
// every job as it is.
func ServeCells(cfg Config, measure MeasureFunc, jobs []Job, classes []Class, cells []Queue, route Route) Run {
	start := time.Now()
	var before timecache.Stats
	if cfg.Cache != nil {
		before = cfg.Cache.Stats()
	}
	if len(classes) == 0 {
		classes = []Class{nil}
	}
	order := arrivalOrder(jobs)
	meas, pool := measureAll(cfg, measure, jobs, order, classes)

	r := &Replay{cells: make([]cellState, len(cells)), meas: meas, results: make([]JobResult, len(jobs))}
	for c, q := range cells {
		st := &r.cells[c]
		st.class, st.servers, st.queueCap = q.Class, max(q.Servers, 1), q.QueueDepth
		switch {
		case q.QueueDepth == 0:
			st.queueCap = DefaultQueueDepth
		case q.QueueDepth < 0:
			st.queueCap = 0
		}
		st.free = make([]int64, min(st.servers, len(jobs)))
	}
	for pos, ji := range order {
		job := &jobs[ji]
		res := &r.results[pos]
		res.Job, res.Name, res.Arrival = pos, job.Name, job.Arrival
		// Completions are global events in virtual time: every cell
		// drains first, so the route sees the true backlog.
		for c := range r.cells {
			r.drain(c, job.Arrival, false)
		}
		c := 0
		if route != nil {
			c = route(r, pos, job)
		}
		res.Cell = c
		st := &r.cells[c]
		m := &meas[st.class][pos]
		if m.err != nil {
			res.Outcome = Failed
			res.Error = m.err.Error()
			continue
		}
		res.ServiceCycles = m.rec.TotalCycles
		res.OfferedBits = m.rec.PayloadBits
		if srv, at := st.earliest(); len(st.queue) == 0 && at <= job.Arrival {
			r.start(c, pos, srv, job.Arrival)
		} else if len(st.queue) < st.queueCap {
			st.queue = append(st.queue, pos)
		} else {
			res.Outcome = Dropped
		}
		res.QueueDepth = len(st.queue)
	}
	for c := range r.cells {
		r.drain(c, 0, true)
	}
	// Every served record now holds its measurement; let the collector
	// have the trace-sized table before the per-cell split below.
	r.meas = nil

	stats := pool.Stats()
	run := Run{Results: r.results, Order: order, Pool: &stats}
	if len(cells) == 1 {
		run.PerCell = [][]JobResult{r.results}
	} else {
		run.PerCell = make([][]JobResult, len(cells))
		for i := range r.results {
			c := r.results[i].Cell
			run.PerCell[c] = append(run.PerCell[c], r.results[i])
		}
	}
	run.Cells = make([]report.ServiceSummary, len(cells))
	for c := range r.cells {
		run.Cells[c] = Summarize(run.PerCell[c], r.cells[c].servers, r.cells[c].queueCap)
	}

	host := report.HostStats{WallSeconds: time.Since(start).Seconds()}
	if host.WallSeconds > 0 {
		host.SlotsPerSec = float64(len(jobs)) / host.WallSeconds
	}
	if cfg.Cache != nil {
		after := cfg.Cache.Stats()
		host.CacheHits = after.Hits - before.Hits
		host.CacheMisses = after.Misses - before.Misses
		if total := host.CacheHits + host.CacheMisses; total > 0 {
			host.CacheHitRate = float64(host.CacheHits) / float64(total)
		}
		run.CacheEntries = after.Entries
	}
	run.Host = &host
	return run
}

// arrivalOrder returns job indices sorted by arrival cycle, stable in
// input order for simultaneous arrivals.
func arrivalOrder(jobs []Job) []int {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Arrival < jobs[order[b]].Arrival
	})
	return order
}

// measureAll runs phase 1: every job measured under every serving class
// across one sharded machine pool. meas is indexed [class][arrival-order
// position]. A job that does not pin its payload seed gets one derived
// from cfg.Seed and its arrival-order position, the same in every class.
func measureAll(cfg Config, measure MeasureFunc, jobs []Job, order []int, classes []Class) ([][]measured, *engine.Sharded) {
	base := cfg.Seed
	if base == 0 {
		base = 1
	}
	total := len(classes) * len(jobs)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, total), 1)
	sharded := engine.NewSharded(workers)
	meas := make([][]measured, len(classes))
	for cls := range meas {
		meas[cls] = make([]measured, len(jobs))
	}
	run := func(pool *engine.Machines, k int) {
		cls, pos := k/len(jobs), k%len(jobs)
		chain := jobs[order[pos]].Chain
		if classes[cls] != nil {
			chain = classes[cls](chain)
		}
		if chain.Seed == 0 {
			chain.Seed = jobSeed(base, pos)
		}
		rec, err := Resolve(pool, chain, cfg.Cache, cfg.Model, measure)
		meas[cls][pos] = measured{rec: rec, err: err}
	}
	if workers == 1 {
		pool := sharded.Shard(0)
		for k := 0; k < total; k++ {
			run(pool, k)
		}
		return meas, sharded
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := sharded.Shard(w)
			for k := range idx {
				run(pool, k)
			}
		}(w)
	}
	for k := 0; k < total; k++ {
		idx <- k
	}
	close(idx)
	wg.Wait()
	return meas, sharded
}

// Summarize computes the aggregate service picture from per-job
// results; a dropped job's OfferedBits supplies the offered payload of
// its discarded measurement, which never reached a JobRecord. It is
// exported for the fleet layer, which summarizes each cell's slice of
// a fleet run with the cell's own service discipline.
func Summarize(results []JobResult, servers, queueCap int) report.ServiceSummary {
	sum := report.ServiceSummary{
		Kind:       "summary",
		Jobs:       len(results),
		Servers:    servers,
		QueueDepth: queueCap,
	}
	var firstArrival, lastEvent int64
	var busy, waitSum, latSum int64
	var waits, lats []int64
	analytic := 0
	for i := range results {
		r := &results[i]
		if i == 0 || r.Arrival < firstArrival {
			firstArrival = r.Arrival
		}
		if r.Arrival > lastEvent {
			lastEvent = r.Arrival
		}
		switch r.Outcome {
		case Served:
			sum.Served++
			if r.Record.Timing == string(pusch.TimingAnalytic) {
				analytic++
			}
			sum.OfferedBits += r.Record.PayloadBits
			sum.ServedBits += r.Record.PayloadBits
			busy += r.ServiceCycles
			waitSum += r.Record.WaitCycles
			latSum += r.Record.LatencyCycles
			waits = append(waits, r.Record.WaitCycles)
			lats = append(lats, r.Record.LatencyCycles)
			if r.Record.WaitCycles > sum.MaxWaitCycles {
				sum.MaxWaitCycles = r.Record.WaitCycles
			}
			if r.Record.LatencyCycles > sum.MaxLatencyCycles {
				sum.MaxLatencyCycles = r.Record.LatencyCycles
			}
			if r.Record.FinishCycle > lastEvent {
				lastEvent = r.Record.FinishCycle
			}
		case Dropped:
			sum.Dropped++
			// A dropped slot's payload was offered but never served.
			sum.OfferedBits += r.OfferedBits
		case Failed:
			sum.Failed++
		}
	}
	// A run whose every served record came from the analytic model is
	// itself analytic: the summary carries the stamp so downstream
	// consumers never mistake predicted service figures for measured
	// ones. Mixed runs stay unstamped (their per-record stamps tell).
	if sum.Served > 0 && analytic == sum.Served {
		sum.Timing = string(pusch.TimingAnalytic)
	}
	sum.HorizonCycles = lastEvent - firstArrival
	sum.HorizonMs = float64(sum.HorizonCycles) / CyclesPerMs
	if sum.HorizonCycles > 0 {
		sum.OfferedGbps = report.Gbps(sum.OfferedBits, sum.HorizonCycles)
		sum.ServedGbps = report.Gbps(sum.ServedBits, sum.HorizonCycles)
		sum.Utilization = float64(busy) / (float64(servers) * float64(sum.HorizonCycles))
	}
	if sum.Served > 0 {
		sum.MeanWaitCycles = float64(waitSum) / float64(sum.Served)
		sum.MeanLatencyCycles = float64(latSum) / float64(sum.Served)
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		sum.WaitP50Cycles = obs.PercentileInt64(waits, 50)
		sum.WaitP95Cycles = obs.PercentileInt64(waits, 95)
		sum.WaitP99Cycles = obs.PercentileInt64(waits, 99)
		sum.LatencyP50Cycles = obs.PercentileInt64(lats, 50)
		sum.LatencyP95Cycles = obs.PercentileInt64(lats, 95)
		sum.LatencyP99Cycles = obs.PercentileInt64(lats, 99)
	}
	if sum.Jobs > 0 {
		sum.DropRate = float64(sum.Dropped) / float64(sum.Jobs)
	}
	return sum
}
