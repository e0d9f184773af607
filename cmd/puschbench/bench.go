package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/engine"
)

// opts configures one workload run.
type opts struct {
	seed    uint64
	seconds float64 // length of the measured phase
	scale   float64 // input-size multiplier; 1 is the benchmark, 0.01 a smoke run
	trace   bool    // run the traced phase after the measured one
	root    string  // repository root, where testdata/ lives
	// traceOut is where the traced phase's Chrome trace goes ("" writes
	// none).
	traceOut string
}

// workload is one benchmark input set. A fresh value is set up
// setupReps times (the last set-up is kept), measured untraced for
// opts.seconds, then, with opts.trace, traced on a prefix of the same
// inputs; traced returns how many ops it traced. measure and traced
// count every checked output (a slot, an experiment, a served job)
// into x.r.Attempted and every failed one into x.r.Failed.
type workload interface {
	setup(x *run) error
	measure(x *run) (opStats, sim)
	traced(x *run, l *lane) (ops int, eng engineTally)
}

// workloads lists the benchmark's workloads in run order.
var workloads = []struct {
	name string
	new  func() workload
}{
	{"slot-mempool64", func() workload { return &slotBench{} }},
	{"kernels-paper", func() workload { return &kernelBench{} }},
	{"serve-cold", func() workload { return &serveBench{} }},
	{"replay-long", func() workload { return &replayBench{} }},
}

// setupReps is how many times each workload is set up; setup_s is the
// median.
const setupReps = 5

// run is one workload run in progress.
type run struct {
	opts
	r     *result
	start time.Time // start of the current phase
	// newMachineNs holds every engine.NewMachine host time of the
	// set-ups, by cluster name.
	newMachineNs map[string][]int64
}

// scaled returns n scaled by opts.scale, at least lo.
func (x *run) scaled(n, lo int) int {
	return max(lo, int(float64(n)*x.scale+0.5))
}

// timeUp reports whether a phase that has completed done units, and
// must complete at least lo, has run for opts.seconds.
func (x *run) timeUp(done, lo int) bool {
	return done >= lo && time.Since(x.start).Seconds() >= x.seconds
}

// newMachine builds a simulator machine, timing the call.
func (x *run) newMachine(cfg *arch.Config) *engine.Machine {
	t := time.Now()
	m := engine.NewMachine(cfg)
	x.newMachineNs[cfg.Name] = append(x.newMachineNs[cfg.Name], time.Since(t).Nanoseconds())
	return m
}

// path resolves a repository-relative path.
func (x *run) path(rel string) string { return filepath.Join(x.root, rel) }

// runWorkload sets up, measures and (optionally) traces one workload.
func runWorkload(name string, o opts) (*result, error) {
	var mk func() workload
	for _, w := range workloads {
		if w.name == name {
			mk = w.new
		}
	}
	if mk == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	x := &run{opts: o, r: &result{Workload: name, Seed: o.seed}, newMachineNs: map[string][]int64{}}
	r := x.r

	var w workload
	var setups []time.Duration
	for range setupReps {
		w = mk()
		t := time.Now()
		if err := w.setup(x); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t))
	}

	runtime.GC()
	m0 := readMem()
	x.start = time.Now()
	st, sm := w.measure(x)
	m1 := readMem()
	if st.ops == 0 {
		return nil, fmt.Errorf("%s: the measured phase completed no op", name)
	}
	opsPerS := float64(st.ops) / st.busy.Seconds()
	r.add("setup_s", medianSeconds(setups), "s")
	r.add("ops_per_s", opsPerS, "1/s")
	r.add("op_p50_ms", percentileMs(st.opNs, 50), "ms")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	r.add("allocs_per_op", float64(m1.mallocs-m0.mallocs)/float64(st.ops), "count")
	r.add("sim_cycles_per_op", sm.cyclesPerOp, "cycles")
	r.add("op_p95_ms", percentileMs(st.opNs, 95), "ms")
	r.add("op_samples", float64(len(st.opNs)), "count")
	r.add("first_record_ms", percentileMs(st.firstNs, 50), "ms")
	sm.report(r)
	r.add("runtime.heap_alloc_mb_per_op", float64(m1.bytes-m0.bytes)/float64(st.ops)/(1<<20), "MB")
	r.add("runtime.gc_cycles", float64(m1.gcs-m0.gcs), "count")
	r.add("runtime.gc_pause_ms", float64(m1.pauseNs-m0.pauseNs)/1e6, "ms")
	var all []int64
	for _, ns := range x.newMachineNs {
		all = append(all, ns...)
	}
	r.add("engine.new_machine_ms", percentileMs(all, 50), "ms")
	for _, cl := range sortedKeys(x.newMachineNs) {
		r.add("engine.new_machine_ms."+strings.ToLower(cl), percentileMs(x.newMachineNs[cl], 50), "ms")
	}

	if o.trace {
		t := newTracer()
		runtime.GC()
		x.start = time.Now()
		n, eng := w.traced(x, t.lane("main"))
		spans := t.stats()
		eng.report(r, spans)
		reportSpans(r, spans)
		// Traced throughput counts only the ops' own spans, as ops_per_s
		// counts only the ops' own time.
		opNs := spanTotal(spans, "op")
		r.add("trace.op_ms", float64(opNs)/float64(n)/1e6, "ms")
		r.add("trace.overhead_ratio", float64(n)/(float64(opNs)/1e9)/opsPerS, "ratio")
		if o.traceOut != "" {
			if err := t.writeChrome(o.traceOut, name); err != nil {
				return nil, fmt.Errorf("%s: writing the trace: %w", name, err)
			}
		}
	}
	r.add("fail_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio")
	r.Correct = r.Failed == 0
	return r, nil
}

// sim is a measured phase's simulated-time and link-quality picture.
// Every field is a pure function of the workload's inputs, so two runs
// with one seed agree exactly. Fields a workload's ops do not produce
// stay zero.
type sim struct {
	cyclesPerOp  float64 // simulated cycles per op (served job, slot or experiment)
	gbps         float64 // payload Gb/s at the nominal 1 GHz clock
	latP50       int64   // served-job sojourn, cycles
	latP99       int64
	waitP99      int64 // served-job queue wait, cycles
	dropRatio    float64
	utilization  float64 // busy server-cycles over capacity
	utilMin      float64 // fleet: least and most loaded cell
	utilMax      float64
	kernelUtil   float64 // mean parallel utilization of the kernel experiments
	ber          float64 // mean bit error rate of the ops' slots
	hitRatio     float64 // service-time cache hits over lookups
	poolBuilds   float64 // simulator machines built per pass
	kernelSpeeds map[string]float64
	extra        []metric // workload-specific rows, printed after these
}

// paperSpeedups are the source paper's reported kernel speedups, printed
// beside the measured ones.
var paperSpeedups = map[string]float64{
	"fft.mempool": 211, "mmm.mempool": 225, "chol.mempool": 158,
	"fft.terapool": 762, "mmm.terapool": 880, "chol.terapool": 722,
}

func (s *sim) report(r *result) {
	r.add("sim_gbps", s.gbps, "Gb/s")
	r.add("sim_latency_p50_cycles", float64(s.latP50), "cycles")
	r.add("sim_latency_p99_cycles", float64(s.latP99), "cycles")
	r.add("sim_drop_ratio", s.dropRatio, "ratio")
	r.add("sim_kernel_utilization", s.kernelUtil, "ratio")
	r.add("ber", s.ber, "ratio")
	r.add("sched.wait_p99_cycles", float64(s.waitP99), "cycles")
	r.add("sched.utilization", s.utilization, "ratio")
	r.add("fleet.utilization_min", s.utilMin, "ratio")
	r.add("fleet.utilization_max", s.utilMax, "ratio")
	r.add("timecache.hit_ratio", s.hitRatio, "ratio")
	r.add("engine.pool_builds", s.poolBuilds, "count")
	for _, k := range sortedKeys(paperSpeedups) {
		r.add("kernels."+k+".speedup", s.kernelSpeeds[k], "ratio")
		if _, ok := s.kernelSpeeds[k]; ok {
			r.add("kernels."+k+".paper_speedup", paperSpeedups[k], "ratio")
		}
	}
	r.Metrics = append(r.Metrics, s.extra...)
}

// engineTally accumulates the engine, TCDM and chain-stage counters of
// the traced phase's simulated work, and where the host spent the time
// that simulated it.
type engineTally struct {
	runSpans   []string // span names whose time is engine execution
	cycles     int64    // simulated wall cycles
	coreCycles int64    // cycles x participating cores, the IPC base
	stats      engine.Stats
	accesses   int64 // TCDM bank reservations (chain slots only)
	conflicts  int64 // cycles lost to bank conflicts
	stage      [5]int64
	evmDB      float64
	slots      int // traced chain slots
}

func (e *engineTally) merge(o engineTally) {
	e.cycles += o.cycles
	e.coreCycles += o.coreCycles
	e.stats.Add(o.stats)
	e.accesses += o.accesses
	e.conflicts += o.conflicts
	for i := range e.stage {
		e.stage[i] += o.stage[i]
	}
	e.evmDB += o.evmDB
	e.slots += o.slots
}

// stageKeys names pusch.Stages in metric names, in the same order.
var stageKeys = [5]string{"fft", "bf", "che", "ne", "mimo"}

func (e *engineTally) report(r *result, spans map[string]*spanStat) {
	var runNs int64
	for _, n := range e.runSpans {
		if s := spans[n]; s != nil {
			runNs += s.total
		}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	busy := float64(e.stats.Busy())
	r.add("engine.sim_cycles_per_host_s", div(float64(e.cycles), float64(runNs)/1e9), "cycles/s")
	r.add("engine.host_ns_per_access", div(float64(runNs), float64(e.stats.Loads+e.stats.Stores)), "ns")
	r.add("engine.ipc", div(float64(e.stats.Instrs), float64(e.coreCycles)), "ratio")
	r.add("engine.stall_frac.raw", div(float64(e.stats.RawStalls), busy), "ratio")
	r.add("engine.stall_frac.lsu", div(float64(e.stats.LsuStalls), busy), "ratio")
	r.add("engine.stall_frac.wfi", div(float64(e.stats.WfiStalls), busy), "ratio")
	r.add("engine.stall_frac.ext", div(float64(e.stats.ExtStalls), busy), "ratio")
	r.add("engine.stall_frac.icache", div(float64(e.stats.ICacheStalls), busy), "ratio")
	slots := float64(e.slots)
	r.add("tcdm.accesses_per_op", div(float64(e.accesses), slots), "count")
	r.add("tcdm.conflict_cycles_per_op", div(float64(e.conflicts), slots), "cycles")
	r.add("tcdm.conflict_per_access", div(float64(e.conflicts), float64(e.accesses)), "ratio")
	for i, k := range stageKeys {
		r.add("pusch.stage."+k+"_cycles", div(float64(e.stage[i]), slots), "cycles")
	}
	r.add("pusch.evm_db", div(e.evmDB, slots), "dB")
}

// spanMetrics are the host-time ladder rows derived from span totals:
// mean time per call of each layer function the traced phases time.
// A row is printed only when its span occurred.
var spanMetrics = []struct {
	span, metric, unit string
	scale              float64
}{
	{"engine.reset", "engine.reset_us", "us", 1e-3},
	{"engine.pool_get", "engine.pool_get_us", "us", 1e-3},
	{"pusch.tx", "pusch.tx_ms", "ms", 1e-6},
	{"pusch.plan", "pusch.plan_ms", "ms", 1e-6},
	{"pusch.run", "pusch.run_ms", "ms", 1e-6},
	{"pusch.score", "pusch.score_ms", "ms", 1e-6},
	{"sched.resolve", "sched.resolve_us", "us", 1e-3},
	{"sched.resolve_fast", "sched.resolve_fast_us", "us", 1e-3},
	{"sched.serve", "sched.serve_ms", "ms", 1e-6},
	{"sched.summarize", "sched.summarize_ms", "ms", 1e-6},
	{"fleet.serve", "fleet.serve_ms", "ms", 1e-6},
	{"timecache.key", "timecache.key_us", "us", 1e-3},
	{"timecache.lookup", "timecache.lookup_ns", "ns", 1},
	{"timecache.add", "timecache.add_ns", "ns", 1},
	{"timing.predict", "timing.predict_us", "us", 1e-3},
	{"report.write", "report.write_ms", "ms", 1e-6},
	{"report.diff", "report.diff_ms", "ms", 1e-6},
	{"obs.fold", "obs.fold_ms", "ms", 1e-6},
}

// shareSpans are the span names whose self time is reported as a share
// of all traced self time; roots (the benchmark's own loop) are
// share.harness. A workload that never calls a layer reports its share
// as 0.
var shareSpans = []string{
	"engine.reset", "engine.pool_get",
	"pusch.tx", "pusch.plan", "pusch.run", "pusch.score",
	"bench.fft", "bench.mmm", "bench.chol", "report.record", "report.diff",
	"sched.resolve", "sched.resolve_fast", "sched.serve", "sched.summarize", "fleet.serve",
	"timecache.key", "timecache.lookup", "timecache.add", "timing.predict",
	"report.write", "obs.fold",
}

// reportSpans adds the span-derived ladder rows and the self-time
// shares.
func reportSpans(r *result, spans map[string]*spanStat) {
	for _, m := range spanMetrics {
		if s := spans[m.span]; s != nil {
			r.add(m.metric, float64(s.total)/float64(s.n)*m.scale, m.unit)
		}
	}
	var total, named int64
	for _, s := range spans {
		total += s.self
	}
	for _, n := range shareSpans {
		var self int64
		if s := spans[n]; s != nil {
			self = s.self
		}
		named += self
		r.add("share."+n, float64(self)/float64(max(total, 1)), "ratio")
	}
	r.add("share.harness", float64(total-named)/float64(max(total, 1)), "ratio")
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
