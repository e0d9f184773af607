package sched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
)

// countingStub is stubScheduler whose measurement also counts its calls.
func countingStub(cfg Config, calls *atomic.Int64) *Scheduler {
	s := stubScheduler(cfg)
	inner := s.measure
	s.measure = func(pool *engine.Machines, c pusch.ChainConfig) (report.SlotRecord, error) {
		calls.Add(1)
		return inner(pool, c)
	}
	return s
}

// lineWriter counts the lines written to it (the stream writes one
// line per call) and runs onLine after each.
type lineWriter struct {
	lines  int
	onLine func(lines int) error
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.lines++
	if err := w.onLine(w.lines); err != nil {
		return 0, err
	}
	return len(p), nil
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServeBoundedState: a trace many windows long streams through
// WriteJSONL with state bounded by the window, not the trace. The first
// line arrives after at most two windows' measurements (window 0 and
// the lookahead window 1, which races with window 0's replay), and the
// live heap stays within a fixed few MB of its pre-serve level — the
// results and measurements of 60k jobs would take tens of MB.
func TestServeBoundedState(t *testing.T) {
	const n, budget = 60_000, 4 << 20
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = stubJob("", int64(i)*1000, 1500) // 2 servers at 75% load
	}
	var calls atomic.Int64
	s := countingStub(Config{Servers: 2, Workers: 2}, &calls)
	var firstCalls int64
	var growth uint64
	base := liveHeap()
	w := &lineWriter{onLine: func(lines int) error {
		if lines == 1 {
			firstCalls = calls.Load()
		}
		if lines%10_000 == 0 {
			if h := liveHeap(); h > base {
				growth = max(growth, h-base)
			}
		}
		return nil
	}}
	sum, err := s.WriteJSONL(w, jobs)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(jobs) // the trace is the caller's: keep it out of the growth
	if sum.Served != n || w.lines != n+1 {
		t.Fatalf("served %d of %d jobs in %d lines", sum.Served, n, w.lines)
	}
	if firstCalls > 2*window {
		t.Errorf("first line written after %d measurements, want at most two windows (%d)", firstCalls, 2*window)
	}
	if growth > budget {
		t.Errorf("live heap grew %.1f MB during the serve, want under %.1f MB", float64(growth)/(1<<20), float64(budget)/(1<<20))
	}
}

// TestWriteJSONLStopsAtWriterError: a writer that fails after k lines
// makes WriteJSONL return its error. The failing line belongs to window
// 1, so windows 0 and 1 are measured by then, and window 2 is being
// measured ahead. Its measurements block until the serve has taken the
// writer's error, so the stop lands mid-window whatever the host's
// scheduling (released from the writer itself, they would race the
// stop). From then on the lookahead window hands out no measurement:
// WriteJSONL returns once the at most Workers measurements still
// running have finished.
func TestWriteJSONLStopsAtWriterError(t *testing.T) {
	const n, k, workers = 5000, 1500, 2
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = stubJob("", int64(i)*1000, 500) // never queues: line p is job p
	}
	boom := errors.New("disk full")
	failed := make(chan struct{})
	var calls, finished atomic.Int64
	var atFail int64
	s := stubScheduler(Config{Servers: 1, Workers: workers})
	inner := s.measure
	s.measure = func(pool *engine.Machines, c pusch.ChainConfig) (report.SlotRecord, error) {
		defer finished.Add(1)
		// Windows 0 and 1 are the first 2*window measurements; window 2's
		// wait for the stop.
		if calls.Add(1) > 2*window {
			<-failed
		}
		return inner(pool, c)
	}
	stopped = func() { close(failed) }
	t.Cleanup(func() { stopped = nil })
	w := &lineWriter{onLine: func(lines int) error {
		if lines > k {
			atFail = calls.Load()
			return boom
		}
		return nil
	}}
	if _, err := s.WriteJSONL(w, jobs); !errors.Is(err, boom) {
		t.Fatalf("WriteJSONL returned %v, want the writer's error", err)
	}
	after := calls.Load()
	if atFail < 2*window {
		t.Errorf("%d measurements at the failing write, want at least %d (windows 0 and 1)", atFail, 2*window)
	}
	if limit := min(atFail+workers, 3*window); after > limit {
		t.Errorf("%d measurements after WriteJSONL returned (%d at the failing write), want at most %d", after, atFail, limit)
	}
	if done := finished.Load(); done != after {
		t.Errorf("WriteJSONL returned with %d of %d measurements still running", after-done, after)
	}
}

// BenchmarkServeHugeServers serves 40k stub jobs on 1<<50 servers, where
// each cell can use one server per job: the server pick and the replay
// must not scan every server a job could use.
func BenchmarkServeHugeServers(b *testing.B) {
	jobs := make([]Job, 40_000)
	for i := range jobs {
		jobs[i] = stubJob("", int64(i)*100, 1000)
	}
	s := stubScheduler(Config{Servers: 1 << 50, Workers: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, sum := s.Serve(jobs); sum.Served != len(jobs) {
			b.Fatalf("served %d of %d", sum.Served, len(jobs))
		}
	}
}

// TestMetricsFoldAsEmitted: the service families fold each job as its
// record is emitted, so a scrape while the k-th line is written counts
// exactly k served jobs and k latency samples.
func TestMetricsFoldAsEmitted(t *testing.T) {
	jobs := make([]Job, 3*window)
	for i := range jobs {
		jobs[i] = stubJob("", int64(i)*1000, 500) // never queues: every job serves
	}
	reg := obs.NewRegistry()
	s := stubScheduler(Config{Servers: 1, Workers: 1, Metrics: reg})
	w := &lineWriter{onLine: func(lines int) error {
		if lines%500 != 0 || lines > len(jobs) {
			return nil
		}
		var prom strings.Builder
		if err := reg.WriteProm(&prom); err != nil {
			return err
		}
		for _, want := range []string{
			fmt.Sprintf("pusch_sched_jobs_total{outcome=\"served\"} %d\n", lines),
			fmt.Sprintf("pusch_sched_latency_cycles_count %d\n", lines),
		} {
			if !strings.Contains(prom.String(), want) {
				t.Errorf("scrape at line %d lacks %q", lines, want)
			}
		}
		return nil
	}}
	if _, err := s.WriteJSONL(w, jobs); err != nil {
		t.Fatal(err)
	}
}
