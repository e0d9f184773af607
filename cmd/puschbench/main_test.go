package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go under the race detector, which
// slows the simulator several-fold.
var raceEnabled bool

// smokeBudget bounds the four smoke runs together.
const smokeBudget = 10 * time.Second

// smoke holds the four workloads' smoke runs, shared by the tests.
var smoke struct {
	once    sync.Once
	dir     string
	results map[string]*result
	elapsed time.Duration
	err     error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if smoke.dir != "" {
		os.RemoveAll(smoke.dir)
	}
	os.Exit(code)
}

// smokeResults runs every workload once at -scale 0.01 with tracing.
func smokeResults(t *testing.T) map[string]*result {
	t.Helper()
	smoke.once.Do(func() {
		root, err := findRoot()
		if err != nil {
			smoke.err = err
			return
		}
		if smoke.dir, smoke.err = os.MkdirTemp("", "puschbench-test"); smoke.err != nil {
			return
		}
		smoke.results = map[string]*result{}
		start := time.Now()
		for _, w := range workloads {
			o := opts{seed: 1, seconds: 0.05, scale: 0.01, trace: true, root: root,
				traceOut: filepath.Join(smoke.dir, w.name+".trace.json")}
			r, err := runWorkload(w.name, o)
			if err != nil {
				smoke.err = err
				return
			}
			smoke.results[w.name] = r
		}
		smoke.elapsed = time.Since(start)
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.results
}

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestWorkloadsSmoke(t *testing.T) {
	res := smokeResults(t)
	for _, w := range workloads {
		r := res[w.name]
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.name, r.Correct, r.Attempted, r.Failed, r.Failures)
		}
	}
	if !raceEnabled && smoke.elapsed > smokeBudget {
		t.Errorf("the four smoke runs took %v, budget %v", smoke.elapsed, smokeBudget)
	}
}

// TestSpecMetricsEmitted checks that every run emits every metric
// BENCHMARK.json lists, in its unit, and that the end-to-end ones are
// never 0.
func TestSpecMetricsEmitted(t *testing.T) {
	sp := testSpec(t)
	for name, r := range smokeResults(t) {
		for _, traced := range []bool{false, true} {
			line, err := summaryLine(r, sp, traced)
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
				t.Errorf("%s: summary line keys %s", name, line)
			}
		}
		for _, m := range sp.EndToEnd {
			if v, _ := r.metric(m.Name); v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
			}
		}
	}
}

func TestSpecShape(t *testing.T) {
	sp := testSpec(t)
	root, _ := findRoot()
	if fi, err := os.Stat(filepath.Join(root, specFile)); err != nil || fi.Size() > 64<<10 {
		t.Errorf("%s: %v, want at most 64 KiB", specFile, err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(sp.EndToEnd) < 1 || len(sp.EndToEnd) > 16 || len(sp.PerLayer) < 1 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", sp.RunSeconds)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in %s, %d in the program", len(sp.Workloads), specFile, len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s in %s, %s in the program", i, w.Name, specFile, workloads[i].name)
		}
		if !nameRe.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if !nameRe.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or repeated", m.Name)
			}
			seen[m.Name] = true
			if !unitRe.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: end-to-end bound must be in (0, 0.25]", m.Name)
		}
	}
	for _, m := range sp.PerLayer {
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	setup, ok := sp.find("setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" || setup.Bound == nil {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, m := range sp.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s: bound %v exceeds setup_s's %v, which must be the largest", m.Name, *m.Bound, *setup.Bound)
		}
	}
}

func TestChromeTrace(t *testing.T) {
	smokeResults(t)
	for _, w := range workloads {
		b, err := os.ReadFile(filepath.Join(smoke.dir, w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
				Pid  int    `json:"pid"`
				Tid  int    `json:"tid"`
				Ts   int64  `json:"ts"`
				Dur  *int64 `json:"dur"`
			} `json:"traceEvents"`
			OtherData map[string]string `json:"otherData"`
		}
		if err := json.Unmarshal(b, &tr); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		spans := 0
		for _, ev := range tr.TraceEvents {
			switch ev.Ph {
			case "X":
				spans++
				if ev.Dur == nil || *ev.Dur < 0 || ev.Ts < 0 || ev.Name == "" {
					t.Errorf("%s: malformed span %+v", w.name, ev)
				}
			case "M":
			default:
				t.Errorf("%s: event phase %q", w.name, ev.Ph)
			}
		}
		if spans == 0 || tr.OtherData["time_unit"] != hostTimeUnit {
			t.Errorf("%s: %d spans, time unit %q", w.name, spans, tr.OtherData["time_unit"])
		}
	}
}

// TestSlotStagesCoverOp checks that the traced chain stages account for
// a slot op's host time.
func TestSlotStagesCoverOp(t *testing.T) {
	r := smokeResults(t)["slot-mempool64"]
	var stages float64
	for _, n := range []string{"pusch.tx_ms", "pusch.plan_ms", "pusch.run_ms", "pusch.score_ms"} {
		m, ok := r.metric(n)
		if !ok {
			t.Fatalf("no %s", n)
		}
		stages += m.Value
	}
	op, _ := r.metric("trace.op_ms")
	if stages < 0.95*op.Value || stages > op.Value {
		t.Errorf("stages sum to %.3f ms of a %.3f ms op", stages, op.Value)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v.
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 5}, 5, 5},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	rate := specMetric{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: &bound}
	layer := specMetric{Name: "pusch.run_ms", Unit: "ms", Better: "lower"}
	cycles := specMetric{Name: "sim_cycles_per_op", Unit: "cycles", Better: "lower", Bound: &bound}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name        string
		base, fresh []float64
		m           specMetric
		want        string
	}{
		{"same", base, base, rate, unchanged},
		{"faster", base, scaled(1.2), rate, improved},
		{"slower beyond the bound", base, scaled(0.8), rate, regressed},
		{"slower within the bound", base, scaled(0.97), rate, unchanged},
		{"spread wider than the bound", []float64{60, 140, 80, 120, 100}, []float64{100, 100, 100, 100, 100}, rate, unresolved},
		{"per-layer slower", base, scaled(1.2), layer, regressed},
		{"per-layer noise", base, []float64{101, 99, 100, 100, 98, 102, 100, 99, 101, 100}, layer, unchanged},
		{"exact equal", []float64{5, 5}, []float64{5, 5}, cycles, unchanged},
		{"exact fewer", []float64{5, 5}, []float64{4, 4}, cycles, improved},
		{"exact more", []float64{5, 5}, []float64{6, 6}, cycles, regressed},
		{"exact unsteady", []float64{5, 6}, []float64{5, 5}, cycles, unresolved},
	} {
		if got, _ := verdict(c.base, c.fresh, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	sp := testSpec(t)
	dir := t.TempDir()
	write := func(name string, rate float64) string {
		f := &resultFile{}
		for i := range 3 {
			r := &result{Workload: sp.Workloads[0].Name, Correct: true, Attempted: 1}
			r.add("ops_per_s", rate+float64(i), "1/s")
			r.add("sim_cycles_per_op", 1000, "cycles")
			f.Runs = append(f.Runs, []*result{r})
		}
		path := filepath.Join(dir, name)
		if err := writeResults(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", 100), write("b.json", 100), write("c.json", 50)
	var out bytes.Buffer
	if bad, err := compareFiles(&out, a, b, sp); err != nil || bad != 0 {
		t.Errorf("same results: %d bad, %v\n%s", bad, err, out.String())
	}
	out.Reset()
	if bad, err := compareFiles(&out, a, c, sp); err != nil || bad != 1 || !strings.Contains(out.String(), regressed) {
		t.Errorf("halved ops_per_s: %d bad, %v\n%s", bad, err, out.String())
	}
}
