package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a deterministic metrics registry: counters, gauges and
// fixed-bucket histograms, exposable in Prometheus text format. Recorded
// values are counts and simulated-cycle quantities only — never wall
// clock — so a snapshot after a deterministic run is itself
// deterministic. A nil *Registry hands out nil instruments whose methods
// no-op, making the whole layer free when metrics are off.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

type family struct {
	name, help, typ string
	buckets         []int64 // histograms only
	series          map[string]*series
}

type series struct {
	mu      sync.Mutex
	labels  string // canonical rendered label set, "" for none
	val     float64
	buckets []int64  // histogram: upper-inclusive bounds (shared with family)
	counts  []uint64 // histogram: per-bucket (non-cumulative), +Inf last
	sum     int64
	count   uint64
}

// Counter is a monotonically increasing count. Nil-safe.
type Counter struct{ s *series }

// Gauge is a point-in-time value. Nil-safe.
type Gauge struct{ s *series }

// Histogram is a fixed-bucket distribution of int64 samples. Nil-safe.
type Histogram struct{ s *series }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// DefaultCycleBuckets spans waiting and service times in simulated
// cycles, powers of four from 64 to ~1.07e9 (about one second at the
// paper's 1 GHz clock).
var DefaultCycleBuckets = []int64{
	64, 256, 1024, 4096, 16384, 65536, 262144,
	1048576, 4194304, 16777216, 67108864, 268435456, 1073741824,
}

// DepthBuckets suits small occupancy counts such as queue depths.
var DepthBuckets = []int64{0, 1, 2, 4, 8, 16, 32, 64}

// Counter registers (or finds) a counter series. Labels are key/value
// pairs: Counter("jobs_total", "...", "outcome", "served").
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{s: r.series("counter", name, help, nil, labels)}
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{s: r.series("gauge", name, help, nil, labels)}
}

// Histogram registers (or finds) a histogram series with the given
// upper-inclusive bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []int64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return &Histogram{s: r.series("histogram", name, help, buckets, labels)}
}

// series finds or creates the (family, label set) series. Mismatched
// re-registration (same name, different type) panics: metric names are
// compile-time constants and a clash is a programming error.
func (r *Registry) series(typ, name, help string, buckets []int64, labels []string) *series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s: odd label list", name))
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, series: make(map[string]*series)}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		if typ == "histogram" {
			s.buckets = f.buckets
			s.counts = make([]uint64, len(f.buckets)+1)
		}
		f.series[key] = s
	}
	return s
}

// renderLabels builds the canonical label string: pairs sorted by key,
// values escaped per the Prometheus text format.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", p.k, escapeLabel(p.v))
	}
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// Add increments the counter by n (negative deltas are ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.s.mu.Lock()
	c.s.val += float64(n)
	c.s.mu.Unlock()
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.mu.Lock()
	g.s.val = v
	g.s.mu.Unlock()
}

// SetInt stores an integer gauge value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	s := h.s
	s.mu.Lock()
	idx := len(s.counts) - 1 // +Inf
	for i, ub := range s.buckets {
		if v <= ub {
			idx = i
			break
		}
	}
	s.counts[idx]++
	s.sum += v
	s.count++
	s.mu.Unlock()
}

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4). Families are sorted by name and series by label set,
// so the output is deterministic.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch f.typ {
	case "counter", "gauge":
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, braced(s.labels), formatVal(s.val))
		return err
	case "histogram":
		var cum uint64
		for i, ub := range f.buckets {
			cum += s.counts[i]
			le := strconv.FormatInt(ub, 10)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, braced(joinLabels(s.labels, `le="`+le+`"`)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, braced(joinLabels(s.labels, `le="+Inf"`)), s.count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", f.name, braced(s.labels), s.sum); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(s.labels), s.count)
		return err
	}
	return nil
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// formatVal renders a sample value: integral values without a decimal
// point, everything else in shortest-roundtrip form.
func formatVal(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PercentileInt64 returns the nearest-rank q-th percentile (q in
// (0,100]) of an ascending-sorted sample, or 0 for an empty sample.
// Nearest-rank on the exact order statistics keeps summaries
// deterministic and free of interpolation artifacts.
func PercentileInt64(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[PercentileRank(len(sorted), q)-1]
}

// PercentileRank is the 1-based nearest rank of the q-th percentile in
// a sample of n > 0 values: the rank PercentileInt64 reads.
func PercentileRank(n int, q float64) int {
	rank := int(q / 100 * float64(n))
	if float64(rank) < q/100*float64(n) {
		rank++
	}
	return min(max(rank, 1), n)
}
