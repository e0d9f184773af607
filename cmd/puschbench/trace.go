package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer's public function: its name
// ("pusch.run", "sched.resolve"), the op it served, the span that
// caused it, and its host-time window in ns since the tracer's epoch.
type span struct {
	name   string
	track  string
	op     int
	parent int // index into tracer.spans; -1 for a root
	start  int64
	end    int64
}

// tracer keeps every span of a traced phase in memory until the
// benchmark writes them out. Lanes on several goroutines share it.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// lane is one goroutine's view of the tracer: spans it opens nest
// inside the lane's innermost open span, on the lane's own track.
type lane struct {
	t     *tracer
	track string
	stack []int
}

func (t *tracer) lane(track string) *lane { return &lane{t: t, track: track} }

// fork returns a lane for another goroutine whose top-level spans are
// children of l's innermost open span.
func (l *lane) fork(track string) *lane {
	return &lane{t: l.t, track: track, stack: []int{l.top()}}
}

func (l *lane) top() int {
	if len(l.stack) == 0 {
		return -1
	}
	return l.stack[len(l.stack)-1]
}

func (l *lane) begin(name string, op int) {
	t := l.t
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, track: l.track, op: op, parent: l.top(), start: t.now()})
	l.stack = append(l.stack, len(t.spans)-1)
	t.mu.Unlock()
}

func (l *lane) end() {
	t := l.t
	i := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	t.mu.Lock()
	t.spans[i].end = t.now()
	t.mu.Unlock()
}

// do runs fn inside a span.
func (l *lane) do(name string, op int, fn func() error) error {
	l.begin(name, op)
	defer l.end()
	return fn()
}

// spanStat aggregates the spans of one name: call count, total
// duration, and self time (duration not covered by child spans).
type spanStat struct {
	n     int
	total int64
	self  int64
}

// stats folds the recorded spans by name. A span whose children ran in
// parallel on other lanes can have children covering more than its own
// duration; its self time is then 0.
func (t *tracer) stats() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*spanStat)
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStat{}
			out[s.name] = st
		}
		st.n++
		st.total += s.end - s.start
		st.self += max(0, s.end-s.start-child[i])
	}
	return out
}

// hostTimeUnit replaces obs's virtual-time label: these spans carry
// host nanoseconds where obs's own traces carry simulated cycles.
const (
	virtualTimeUnit = "1 trace us = 1 simulated cycle"
	hostTimeUnit    = "1 trace us = 1 host ns"
)

// writeChrome writes the spans as a Chrome trace through internal/obs:
// one process for the workload, one thread per lane, and each span
// named "<call> [op N]". Timestamps are host ns, which trace viewers
// display as microseconds.
func (t *tracer) writeChrome(path, workload string) error {
	p := obs.NewProfile()
	tr := p.Slot(0, "puschbench "+workload+" (host ns)")
	t.mu.Lock()
	for _, s := range t.spans {
		tr.AddSpan(obs.Span{Track: s.track, Name: fmt.Sprintf("%s [op %d]", s.name, s.op), Start: s.start, End: s.end})
	}
	t.mu.Unlock()
	var buf bytes.Buffer
	if err := p.WriteChrome(&buf); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, bytes.Replace(buf.Bytes(), []byte(virtualTimeUnit), []byte(hostTimeUnit), 1), 0o644)
}
