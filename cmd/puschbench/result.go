package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// metric is one measured value with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: the correctness tally and every metric
// the run measured, in the order it measured them.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// maxFailureNotes bounds the failure messages a result keeps; the
// count in Failed stays exact.
const maxFailureNotes = 8

func (r *result) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit})
}

// fail counts n failed ops when err (an error or a failed correctness
// check) is non-nil.
func (r *result) fail(n int, err error) {
	if err == nil {
		return
	}
	r.Failed += n
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, err.Error())
	}
}

func (r *result) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// opStats is what a measured phase hands back to the runner: one
// host-time sample per op (or per pass, divided by the pass's ops),
// the time to each request's first output record, and the summed op
// time that ops_per_s divides by.
type opStats struct {
	ops     int
	opNs    []int64
	firstNs []int64
	busy    time.Duration
}

// one records a single op that also produced one output record.
func (s *opStats) one(d time.Duration) {
	s.ops++
	s.opNs = append(s.opNs, d.Nanoseconds())
	s.firstNs = append(s.firstNs, d.Nanoseconds())
	s.busy += d
}

// pass records one pass of ops ops that took d and wrote its first
// record first after its start.
func (s *opStats) pass(d, first time.Duration, ops int) {
	s.ops += ops
	s.opNs = append(s.opNs, d.Nanoseconds()/int64(ops))
	s.firstNs = append(s.firstNs, first.Nanoseconds())
	s.busy += d
}

// percentileMs is the nearest-rank q-th percentile of ns samples, in ms.
func percentileMs(ns []int64, q float64) float64 {
	s := slices.Clone(ns)
	slices.Sort(s)
	return float64(obs.PercentileInt64(s, q)) / 1e6
}

// medianSeconds is the median of a few set-up timings.
func medianSeconds(ds []time.Duration) float64 {
	s := slices.Clone(ds)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2].Seconds()
	}
	return (s[n/2-1] + s[n/2]).Seconds() / 2
}

// memSnap is the runtime's allocation and GC counters at one instant.
type memSnap struct {
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), or
// the runtime's total mapped memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// stampWriter is the serving workloads' output sink: it discards the
// JSONL stream but notes when the first record arrived and keeps a
// checksum, so passes can be compared byte for byte. A non-nil keep
// also receives the bytes.
type stampWriter struct {
	start time.Time
	first time.Duration
	n     int64
	sum   hash.Hash32
	keep  *bytes.Buffer
}

func newStampWriter() *stampWriter {
	return &stampWriter{start: time.Now(), sum: crc32.New(crc32.MakeTable(crc32.Castagnoli))}
}

func (w *stampWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		w.first = time.Since(w.start)
	}
	w.n += int64(len(p))
	if w.keep != nil {
		w.keep.Write(p)
	}
	return w.sum.Write(p)
}

// digest identifies the bytes written so far.
func (w *stampWriter) digest() string { return fmt.Sprintf("%08x/%d", w.sum.Sum32(), w.n) }
