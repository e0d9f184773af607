package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// compareFiles compares a base and a new result set, each of N runs,
// metric by metric and workload by workload, by the pair rule: run i of
// one set is paired with run i of the other. It prints one row per
// (workload, metric) and returns how many end-to-end metrics regressed
// or could not be resolved.
func compareFiles(w io.Writer, basePath, newPath string, sp *benchSpec) (int, error) {
	base, err := readResults(basePath)
	if err != nil {
		return 0, err
	}
	fresh, err := readResults(newPath)
	if err != nil {
		return 0, err
	}
	bv, fv := base.values(), fresh.values()
	fmt.Fprintf(w, "base: %s (%d runs, %s, nproc %d)\nnew:  %s (%d runs, %s, nproc %d)\n",
		basePath, len(base.Runs), base.Header.GitCommit, base.Header.NProc,
		newPath, len(fresh.Runs), fresh.Header.GitCommit, fresh.Header.NProc)
	fmt.Fprintf(w, "%-15s %-40s %13s %27s %13s %27s %5s  %s\n",
		"workload", "metric", "base median", "[q1 q3]", "new median", "[q1 q3]", "win", "verdict")
	bad := 0
	for _, wl := range sp.Workloads {
		bm, fm := bv[wl.Name], fv[wl.Name]
		if bm == nil || fm == nil {
			continue
		}
		for _, name := range metricOrder(sp, bm) {
			a, b := bm[name], fm[name]
			if b == nil {
				continue
			}
			m, ok := sp.find(name)
			if !ok {
				m = specMetric{Name: name, Better: "lower"}
			}
			v, win := verdict(a, b, m)
			if m.Bound != nil && (v == regressed || v == unresolved) {
				bad++
			}
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			fmt.Fprintf(w, "%-15s %-40s %13.6g [%12.6g %12.6g] %13.6g [%12.6g %12.6g] %5.2f  %s\n",
				wl.Name, name, median(a), aq1, aq3, median(b), bq1, bq3, win, v)
		}
	}
	fmt.Fprintf(w, "%d end-to-end metric(s) regressed or unresolved\n", bad)
	return bad, nil
}

// values indexes a result set as workload -> metric -> one value per
// run, in run order.
func (f *resultFile) values() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range f.Runs {
		for _, r := range run {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for _, m := range r.Metrics {
				out[r.Workload][m.Name] = append(out[r.Workload][m.Name], m.Value)
			}
		}
	}
	return out
}

// metricOrder lists a workload's metrics: end-to-end ones in spec
// order, then per-layer ones, then the rest by name.
func metricOrder(sp *benchSpec, ms map[string][]float64) []string {
	var out []string
	seen := map[string]bool{}
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if ms[m.Name] != nil {
				out = append(out, m.Name)
				seen[m.Name] = true
			}
		}
	}
	for _, name := range sortedKeys(ms) {
		if !seen[name] {
			out = append(out, name)
		}
	}
	return out
}

// exact reports whether a metric is a simulated-time or link-quality
// quantity: a pure function of the inputs, compared for equality.
func exact(m specMetric) bool {
	return strings.HasPrefix(m.Name, "sim_") || m.Name == "ber" || m.Unit == "cycles"
}

// verdict applies the pair rule (choosing-metrics guide, section 8) to
// one metric. A change improves a metric when it wins at least nine
// tenths of the pairs (ties count for neither side) and the medians
// differ by more than the base set's interquartile spread. An
// end-to-end metric regresses when the new median is worse than the
// base median by more than its bound, and is unresolved when the base
// set's own spread exceeds the bound, unless every new run beats every
// base run. Exact metrics must match run for run. It also returns the
// new set's win fraction.
func verdict(base, fresh []float64, m specMetric) (string, float64) {
	lower := m.Better != "higher"
	better := func(x, y float64) bool { return x < y == lower && x != y }
	n := min(len(base), len(fresh))
	wins, losses := 0, 0
	for i := range n {
		switch {
		case better(fresh[i], base[i]):
			wins++
		case better(base[i], fresh[i]):
			losses++
		}
	}
	win := float64(wins) / float64(max(n, 1))
	mb, mf := median(base), median(fresh)
	if exact(m) {
		switch {
		case constant(base) && constant(fresh) && mb == mf:
			return unchanged, win
		case !constant(base) || !constant(fresh):
			return unresolved, win
		case better(mf, mb):
			return improved, win
		}
		return regressed, win
	}
	q1, q3 := quartiles(base)
	spread := q3 - q1
	moved := math.Abs(mf-mb) > spread
	if 10*wins >= 9*n && moved && better(mf, mb) {
		return improved, win
	}
	if m.Bound == nil {
		if 10*losses >= 9*n && moved && better(mb, mf) {
			return regressed, win
		}
		return unchanged, win
	}
	scale := math.Abs(mb)
	if scale == 0 {
		scale = 1
	}
	worse := (mf - mb) / scale
	if !lower {
		worse = -worse
	}
	switch {
	case worse > *m.Bound:
		return regressed, win
	case spread/scale > *m.Bound && !dominates(fresh, base, better):
		return unresolved, win
	}
	return unchanged, win
}

// dominates reports whether every run of a beats every run of b.
func dominates(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

func constant(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(v, n=4) (the default, "exclusive").
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
