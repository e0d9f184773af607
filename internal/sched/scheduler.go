package sched

import (
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
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

// MeasureFunc is campaign.MeasureFunc, the per-job measurement hook.
// It and Resolve keep the serving layer's spelling of the resolution
// path for cmd/puschbench.
type MeasureFunc = campaign.MeasureFunc

// Resolve forwards to campaign.Resolve, the one resolution path:
// analytic model, then service-time cache, then the engine via measure.
func Resolve(pool *engine.Machines, cfg pusch.ChainConfig, cache *timecache.Cache, model *timing.Model, measure MeasureFunc) (report.SlotRecord, error) {
	return campaign.Resolve(pool, cfg, cache, model, measure)
}

// Serve runs the whole trace and returns per-job results in arrival
// order plus the aggregate service summary: the one-class, one-cell case
// of ServeCells. Individual job failures are reported per job; Serve
// itself never fails.
func (s *Scheduler) Serve(jobs []Job) ([]JobResult, report.ServiceSummary) {
	results := make([]JobResult, 0, len(jobs))
	sum, _ := s.serve(jobs, func(r *JobResult) error {
		results = append(results, *r)
		return nil
	})
	return results, sum
}

// WriteJSONL serves the trace and streams one JobRecord JSON line per
// served job (arrival order) followed by one final summary line tagged
// kind="summary". Each line is written as soon as its job and every
// earlier one are final. Output is byte-identical across runs and
// worker counts for the same trace and configuration. A write error
// ends the serve once the measurements already running have finished
// (see ServeCells): no measurement outlives the call.
func (s *Scheduler) WriteJSONL(w io.Writer, jobs []Job) (report.ServiceSummary, error) {
	enc := NewEncoder(w)
	sum, err := s.serve(jobs, enc.WriteServed)
	if err != nil {
		return sum, err
	}
	// The pool and host stats vary with the host worker count and wall
	// clock; the stream's byte-determinism contract excludes them
	// (callers read them off the returned summary instead).
	wire := sum
	wire.Pool, wire.Host = nil, nil
	return sum, enc.Encode(&wire)
}

// serve runs the trace through ServeCells, handing each job's result to
// emit in arrival order while the service metrics fold.
func (s *Scheduler) serve(jobs []Job, emit func(*JobResult) error) (report.ServiceSummary, error) {
	m := NewServiceMetrics(s.Cfg.Metrics, "")
	run, err := ServeCells(s.Cfg, s.measure, jobs, nil, []Queue{{Servers: s.Cfg.Servers, QueueDepth: s.Cfg.QueueDepth}}, nil,
		func(r *JobResult, _ *Job) error {
			m.Observe(r)
			return emit(r)
		})
	if err != nil {
		return report.ServiceSummary{}, err
	}
	sum := run.Cells[0]
	sum.Pool, sum.Host = run.Pool, run.Host
	m.Finish(&sum)
	RecordHostMetrics(s.Cfg.Metrics, run.Host, run.Pool, run.CacheEntries)
	return sum, nil
}

// Encoder writes the JSONL stream of every serving stack: one line per
// served job, then the summary lines. It makes one Write per line, as
// json.Encoder does.
type Encoder struct {
	w    io.Writer
	enc  *json.Encoder
	buf  []byte          // the last hand-encoded line, reused for the next
	memo report.SlotMemo // the served records' encoded bodies
}

// NewEncoder returns an Encoder that writes to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, enc: json.NewEncoder(w)}
}

// WriteServed writes r's JobRecord as one JSON line when r was served,
// and nothing otherwise. The line is report.JobRecord.AppendJSON's,
// byte for byte what encoding/json writes, with a SlotRecord the
// stream carried recently copied from the encoder's report.SlotMemo; a
// record AppendJSON declines (escaped strings, non-finite floats) goes
// through encoding/json itself, whose bytes or
// *json.UnsupportedValueError it returns.
func (e *Encoder) WriteServed(r *JobResult) error {
	if r.Outcome != Served {
		return nil
	}
	b, ok := e.memo.AppendJSON(e.buf[:0], &r.Record)
	if !ok {
		return e.enc.Encode(&r.Record)
	}
	e.buf = b
	_, err := e.w.Write(b)
	return err
}

// Encode writes v as one JSON line through encoding/json: the summary
// lines, written once per serve.
func (e *Encoder) Encode(v any) error { return e.enc.Encode(v) }

// Class is a serving class: it stamps a cell's coordinates onto a job's
// chain in place before the chain is resolved (nil keeps the chain as
// it is). Every job is measured once per class, however many cells
// share the class.
type Class func(*pusch.ChainConfig)

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

// Sink receives each job's final result, in arrival order, with the job
// it came from; r is valid only during the call. A non-nil error ends
// the serve.
type Sink func(r *JobResult, job *Job) error

// Run is the outcome of ServeCells.
type Run struct {
	// Cells summarizes each cell's jobs under its discipline; All
	// summarizes every job over every cell's servers (queue depth 0).
	Cells []report.ServiceSummary
	All   report.ServiceSummary
	// The host side of the serve: machine-pool occupancy, wall clock and
	// cache traffic, and the cache's resident entries afterwards. These
	// vary with the host and the worker count, never with the results.
	Pool         *engine.PoolStats
	Host         *report.HostStats
	CacheEntries int
}

// window is how many arrival-order positions ServeCells measures at a
// time. A serve holds two windows of measurements per serving class
// (the one replaying and the one measured ahead), so its memory is
// bounded by the window rather than the trace. It stays at least 64, so
// the 64-job serve-cold trace of cmd/puschbench is one window.
const window = 1024

// stopped, when a test sets it, runs on ServeCells' goroutine once an
// emit error has stopped the lookahead window from handing out
// measurements.
var stopped func()

// ServeCells is the one serving loop, behind Scheduler and fleet.Fleet.
// It walks the arrival order in windows of fixed length, and for each
// window:
//
//  1. measures the window's jobs under every serving class across
//     cfg.Workers goroutines over a sharded machine pool built once per
//     serve (engine.Sharded.FanOut), each through its worker's
//     campaign.Memo, which resolves as campaign.Resolve does
//     (cfg.Model, cfg.Cache, then measure; nil measure runs the chain);
//  2. replays the window's arrivals serially in virtual time: at each
//     arrival every cell completes its work up to that instant, route
//     picks a cell, and the cell admits the job under a G/D/c/K
//     discipline — earliest free server (lowest index on ties), FIFO
//     bounded queue, drop on overflow.
//
// The two overlap one window deep: while window k replays on the
// caller's goroutine, a helper goroutine measures window k+1, so the
// workers do not idle during the serial replay. A trace of at most one
// window starts no helper.
//
// Each job's final result goes to emit in arrival order, as soon as the
// job and every earlier one are started, dropped or failed. Each
// measurement depends only on its job and routing reads only the replay
// and the job, so results never depend on measurement order, lookahead
// or worker count. Beyond the caller's trace and the arrival order, a
// serve holds two windows of measurements per class, the queued jobs,
// the results from the oldest queued job to the newest arrival, and 16
// bytes per served job for exact wait and latency percentiles. An emit
// error ends the serve and is returned: the window measured ahead hands
// out no further measurement, and ServeCells returns once the
// measurements already running have finished, so nothing is measured
// after it returns and no window after the one measured ahead is
// started.
//
// cfg supplies the shared machinery (Workers, Seed, Cache, Model); each
// cell carries its own discipline and the caller folds metrics in emit,
// so cfg.Servers, cfg.QueueDepth and cfg.Metrics are not read. cells
// must be non-empty; empty classes means one class that keeps every job
// as it is.
func ServeCells(cfg Config, measure MeasureFunc, jobs []Job, classes []Class, cells []Queue, route Route, emit Sink) (Run, error) {
	start := time.Now()
	var before timecache.Stats
	if cfg.Cache != nil {
		before = cfg.Cache.Stats()
	}
	if len(classes) == 0 {
		classes = []Class{nil}
	}
	base := cfg.Seed
	if base == 0 {
		base = 1
	}
	order := arrivalOrder(jobs)
	// stop is set by the first emit error; from then on no measurement
	// is handed out.
	var stop atomic.Bool
	send := func(r *JobResult) error {
		err := emit(r, &jobs[order[r.Job]])
		if err != nil {
			stop.Store(true)
			if stopped != nil {
				stopped()
			}
		}
		return err
	}
	pool := engine.NewFanOut(cfg.Workers, len(classes)*len(jobs))
	workers := make([]worker, pool.Shards())
	// fill measures the window at lo into meas. Each measurement copies
	// its job's chain once, into its worker's own copy, which the class
	// and the seed stamp in place. A job that does not pin its payload
	// seed gets one derived from cfg.Seed and its arrival-order
	// position, the same in every class.
	fill := func(meas [][]measured, lo int) {
		n := min(window, len(jobs)-lo)
		pool.FanOut(len(classes)*n, func(pool *engine.Machines, w, k int) {
			if stop.Load() {
				return
			}
			cls, pos := k/n, lo+k%n
			wk := &workers[w]
			chain := &wk.chain
			*chain = jobs[order[pos]].Chain
			if classes[cls] != nil {
				classes[cls](chain)
			}
			if chain.Seed == 0 {
				chain.Seed = jobSeed(base, pos)
			}
			m := &meas[cls][k%n]
			m.rec, m.err = wk.memo.Resolve(pool, chain, cfg.Cache, cfg.Model, measure)
		})
	}
	r := newReplay(cells, len(classes), min(window, len(jobs)))
	var next [][]measured // the lookahead window's measurements
	if len(jobs) > window {
		next = newMeasurements(len(classes), window)
	}
	fill(r.meas, 0)
	for lo := 0; lo < len(jobs); lo += window {
		r.lo = lo
		// A helper measures the next window while this one replays; it
		// writes only next, which is read once done is closed.
		var done chan struct{}
		if lo+window < len(jobs) {
			done = make(chan struct{})
			go func() {
				defer close(done)
				fill(next, lo+window)
			}()
		}
		var err error
		for pos := lo; pos < min(lo+window, len(jobs)) && err == nil; pos++ {
			r.arrive(pos, &jobs[order[pos]], route)
			err = r.flush(send)
		}
		if done != nil {
			<-done
			r.meas, next = next, r.meas
		}
		if err != nil {
			return Run{}, err
		}
	}
	for c := range r.cells {
		r.drain(c, 0, true)
	}
	if err := r.flush(send); err != nil {
		return Run{}, err
	}

	stats := pool.Stats()
	run := Run{Cells: make([]report.ServiceSummary, len(cells)), Pool: &stats}
	servers := 0
	for c := range r.cells {
		st := &r.cells[c]
		run.Cells[c] = summarize(r.tallies[c:c+1], st.servers, st.queueCap)
		servers += st.servers
	}
	run.All = summarize(r.tallies, servers, 0)

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
	return run, nil
}

// worker is one measurement worker's own state, which only the
// goroutine running as that worker touches: the chain of the job it
// resolves and its resolution memo, kept across the serve's windows.
// The chain lives here rather than in the fill closure's frame because
// a Class is a func value: one that took the address of a local would
// move that local to the heap on every job.
type worker struct {
	chain pusch.ChainConfig
	memo  campaign.Memo
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
