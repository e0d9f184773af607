package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/report"
)

// kernelBench is kernels-paper: the paper's Fig. 8/9 experiment set
// (bench.PaperExperiments) for MemPool then TeraPool, 18 experiments.
// One op is one round of the whole set, the wait of a kernelbench user;
// per-experiment host times are ladder rows. The registry fixes every
// experiment's inputs, so the seed changes nothing here. Each
// experiment builds fresh deepened machines of up to a GB, so the heap
// is collected before every experiment, outside its timing: the peak
// is then one experiment's footprint, not an accident of GC pacing.
type kernelBench struct {
	exps     []bench.Experiment
	baseline *report.Document
	first    map[string][]byte // each experiment's first record (JSON)
}

func (b *kernelBench) setup(x *run) error {
	base, err := report.Load(x.path("testdata/baseline_kernels.json"))
	if err != nil {
		return err
	}
	b.baseline = base
	var exps []bench.Experiment
	for _, cl := range []*arch.Config{arch.MemPool(), arch.TeraPool()} {
		x.newMachine(cl) // the stock arena each experiment deepens
		exps = append(exps, bench.PaperExperiments(cl)...)
	}
	b.exps = exps[:min(len(exps), x.scaled(len(exps), 1))]
	// Warm up on the registry's cheapest experiment, the 256-point FFTs
	// on MemPool.
	_, err = b.exps[0].Run()
	return err
}

func (b *kernelBench) measure(x *run) (opStats, sim) {
	var st opStats
	b.first = map[string][]byte{}
	var recs []report.KernelRecord
	hostNs, calls := map[string]int64{}, map[string]int{}
	for round := 0; !x.timeUp(round, 1); round++ {
		var busy, first time.Duration
		for i, e := range b.exps {
			runtime.GC()
			t := time.Now()
			res, err := e.Run()
			d := time.Since(t)
			busy += d
			if i == 0 {
				first = d
			}
			hostNs[familyKey(e)] += d.Nanoseconds()
			calls[familyKey(e)]++
			x.r.Attempted++
			if err == nil {
				var rec report.KernelRecord
				rec, err = b.check(e, res)
				if round == 0 {
					recs = append(recs, rec)
				}
			}
			x.r.fail(1, opErr(i, err))
		}
		st.pass(busy, first, 1)
	}
	for _, d := range b.diff(recs) {
		x.r.fail(1, fmt.Errorf("baseline drift: %s", d))
	}

	sm := sim{kernelSpeeds: map[string]float64{}}
	best := map[string]report.KernelRecord{}
	for _, rec := range recs {
		sm.cyclesPerOp += float64(rec.Parallel.Cycles)
		sm.kernelUtil += rec.Utilization / float64(len(recs))
		k := rec.Kernel + "." + strings.ToLower(rec.Cluster)
		if rec.Speedup > best[k].Speedup {
			best[k] = rec
		}
	}
	for _, k := range sortedKeys(best) {
		sm.kernelSpeeds[k] = best[k].Speedup
		sm.extra = append(sm.extra,
			metric{"kernels." + k + ".utilization", best[k].Utilization, "ratio"},
			metric{"kernels." + k + ".host_ms", float64(hostNs[k]) / float64(calls[k]) / 1e6, "ms"})
	}
	return st, sm
}

// familyKey names an experiment's kernel family on its cluster, as in
// the kernels.<family>.<cluster> metrics.
func familyKey(e bench.Experiment) string {
	return e.Kernel + "." + e.ID[:strings.IndexByte(e.ID, '/')]
}

// check holds one experiment to its identity and to its first round:
// the engine is deterministic, so every round reproduces the record
// byte for byte.
func (b *kernelBench) check(e bench.Experiment, res *bench.Result) (report.KernelRecord, error) {
	rec := res.Record()
	if rec.Key() != e.ID {
		return rec, fmt.Errorf("%s produced record %s", e.ID, rec.Key())
	}
	js, _ := json.Marshal(rec) // a KernelRecord always encodes
	if first, ok := b.first[e.ID]; !ok {
		b.first[e.ID] = js
	} else if !bytes.Equal(js, first) {
		return rec, fmt.Errorf("%s: the record differs from its first round", e.ID)
	}
	return rec, nil
}

// diff compares records against the committed kernel baselines, cycle
// for cycle, on the experiments both cover; it returns one drift per
// mismatching experiment.
func (b *kernelBench) diff(recs []report.KernelRecord) []report.Drift {
	keys := map[string]bool{}
	fresh := report.NewDocument("puschbench")
	for _, rec := range recs {
		keys[rec.Key()] = true
	}
	base := report.NewDocument("puschbench")
	covered := map[string]bool{}
	for _, rec := range b.baseline.Kernels {
		if keys[rec.Key()] {
			base.Kernels = append(base.Kernels, rec)
			covered[rec.Key()] = true
		}
	}
	for _, rec := range recs {
		if covered[rec.Key()] {
			fresh.Kernels = append(fresh.Kernels, rec)
		}
	}
	var out []report.Drift
	seen := map[string]bool{}
	for _, d := range report.Diff(base, fresh) {
		if !seen[d.Key] {
			seen[d.Key] = true
			out = append(out, d)
		}
	}
	return out
}

// traced re-runs one round, each experiment a root span of its own so
// the collections between them stay outside the traced time.
func (b *kernelBench) traced(x *run, l *lane) (int, engineTally) {
	tally := engineTally{runSpans: []string{"bench.fft", "bench.mmm", "bench.chol"}}
	var recs []report.KernelRecord
	for i, e := range b.exps {
		runtime.GC()
		l.begin("op", i)
		var res *bench.Result
		err := l.do("bench."+e.Kernel, i, func() (err error) {
			res, err = e.Run()
			return err
		})
		if err == nil {
			var rec report.KernelRecord
			l.do("report.record", i, func() error {
				rec = res.Record()
				return nil
			})
			js, _ := json.Marshal(rec)
			if !bytes.Equal(js, b.first[e.ID]) {
				err = fmt.Errorf("%s: the traced record differs from the measured one", e.ID)
			}
			recs = append(recs, rec)
			p := res.Parallel
			tally.cycles += p.Wall
			tally.coreCycles += p.Wall * int64(p.Cores)
			tally.stats.Add(p.Stats)
		}
		l.end()
		x.r.Attempted++
		x.r.fail(1, opErr(i, err))
	}
	var drifts []report.Drift
	l.do("report.diff", 0, func() error {
		drifts = b.diff(recs)
		return nil
	})
	for _, d := range drifts {
		x.r.fail(1, fmt.Errorf("traced baseline drift: %s", d))
	}
	return 1, tally
}
