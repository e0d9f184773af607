// Command benchgate is the deterministic performance gate. It runs a
// table of gates, each judged on simulated cycles or output bytes, so a
// verdict never depends on the host that computes it. Every gate
// measures, stores what it measured in the benchmark document, prints
// one summary line and reports its failures; benchgate then writes the
// document (-out, the CI workflow's per-commit artifact) and exits.
//
// The kernel gate runs the quick experiment subset and diffs it, record
// by record and cycle by cycle, against the committed baseline. Because
// the simulator is bit-reproducible, the comparison is exact — any
// drift is a real performance change, so the gate fails on a single
// cycle of difference in either direction.
//
// The layout gate sweeps chain-stage partition layouts (sequential plus
// the default partition-split ladder) over the small-allocation gate
// slot on stock MemPool and requires the best pipelined layout's slot
// throughput to be at least the sequential layout's: the spatially
// pipelined executor must keep paying for itself. The sweep's slot
// records are included in the document, so the CI artifact carries the
// per-layout Gb/s trajectory.
//
// The cache gate serves a repeated-coordinate mixed trace three times —
// cold, through a fresh service-time cache, and again through the
// warmed cache — and requires all three JSONL streams byte-identical
// with the warm pass all hits: the memoized fast path
// (internal/timecache) can never silently diverge from the
// cycle-accurate truth. The warm run's summary (host slots/sec, cache
// hit rate) is embedded in the document as the artifact's "service"
// section.
//
// The calibration gate loads the committed analytic-timing artifact
// (testdata/calibration.json), re-measures its held-out scenario grid
// cycle-accurately on every calibrated cluster, and requires each
// cluster's P95 relative total-cycle error to stay within the budget
// committed inside the artifact: the analytic fast path
// (internal/timing) can drift from the engine only as far as the
// budget allows, and a kernel or engine timing change that moves the
// goldens past it fails CI until the calibration is deliberately
// refitted with -update-calibration. The per-cluster error summary is
// embedded in the document as the artifact's "calibration" section.
//
// The fleet gate serves a mobile mixed trace through the multi-cell
// fleet layer (internal/fleet) and requires the serving loop's
// determinism contract to survive sharding: a 3-cell SINR-routed
// fleet's stream must be byte-identical across measurement worker
// counts and under the service-time cache. The 3-cell fleet summary
// (per-cell service, handovers) is embedded in the document as the
// artifact's "fleet" section.
//
// Host wall time is not gated here: cmd/puschbench is the host
// benchmark, and it compares parent against change on one host.
//
// Usage:
//
//	benchgate [-baseline testdata/baseline_kernels.json]
//	          [-calibration testdata/calibration.json]
//	          [-out BENCH_2026-07-26.json]
//	benchgate -update-calibration
//
// -update-calibration refits the analytic timing model on the golden
// fit grid, rewrites the -calibration artifact, and then runs only the
// calibration gate against it.
//
// Exit status: 0 when every gate holds, 1 when one fails (kernel drift
// fails whether it is a regression or an improvement, because baselines
// must be regenerated deliberately with `go run ./cmd/kernelbench
// -update-baseline`), 2 on operational errors.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/timecache"
	"repro/internal/timing"
	"repro/internal/waveform"
)

// A gate checks one property of the tree: run measures, stores its
// records or section in doc, prints the gate's summary line and returns
// its failure lines (none when the gate holds). An error is
// operational, not a verdict.
type gate struct {
	name string
	run  func(doc *report.Document) (fails []string, err error)
}

// gateChain is the slot the layout, cache and fleet gates serve: a
// small PRB allocation (64 subcarriers) on stock MemPool, where
// per-kernel parallelism saturates well below the cluster size —
// exactly the regime the spatially pipelined layouts exist for.
func gateChain() pusch.ChainConfig {
	return pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 14, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
}

// kernelGate diffs the quick experiment subset against the baseline.
func kernelGate(doc *report.Document, baselinePath string) ([]string, error) {
	base, err := report.Load(baselinePath)
	if err != nil {
		return nil, err
	}
	records, errs := bench.RunExperiments(bench.QuickExperiments())
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	doc.Kernels = records
	drifts := report.Diff(base, &report.Document{Kernels: records})
	var fails []string
	regressions := 0
	for _, d := range drifts {
		tag := "drift     "
		if d.Regression() {
			tag = "REGRESSION"
			regressions++
		}
		fails = append(fails, fmt.Sprintf("%s  %s", tag, d))
	}
	fmt.Printf("benchgate: kernel gate on the quick subset: %d records, %d drifting (%d regressions) against %s\n",
		len(records), len(drifts), regressions, baselinePath)
	if len(drifts) == 0 {
		return nil, nil
	}
	return append(fails,
		fmt.Sprintf("benchgate: FAIL — %d drifting records (%d regressions) against %s", len(drifts), regressions, baselinePath),
		"benchgate: if the change is intentional, regenerate with: go run ./cmd/kernelbench -update-baseline"), nil
}

// layoutGate sweeps the gate slot over the default layout ladder.
func layoutGate(doc *report.Document) ([]string, error) {
	pool := engine.NewMachines()
	var seq, best report.SlotRecord
	for _, sc := range campaign.LayoutSweep(gateChain(), nil) {
		r, err := campaign.Resolve(pool, *sc.Chain, nil, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("layout sweep %s: %w", sc.Name, err)
		}
		doc.Slots = append(doc.Slots, r)
		switch {
		case r.Layout == "":
			seq = r
		case best.Layout == "" || r.ThroughputGbps > best.ThroughputGbps:
			best = r
		}
	}
	gain := 0.0
	if seq.ThroughputGbps > 0 {
		gain = 100 * (best.ThroughputGbps/seq.ThroughputGbps - 1)
	}
	fmt.Printf("benchgate: layout gate on %s (%d-SC slot): sequential %.4f Gb/s (%d cycles), best pipelined %s %.4f Gb/s (%d cycles, %+.1f%%)\n",
		seq.Cluster, gateChain().NSC, seq.ThroughputGbps, seq.TotalCycles,
		best.Layout, best.ThroughputGbps, best.TotalCycles, gain)
	if best.Layout == "" || best.ThroughputGbps < seq.ThroughputGbps {
		return []string{"benchgate: FAIL — best pipelined layout no longer reaches sequential throughput on the gate slot"}, nil
	}
	return nil, nil
}

// gateJobs is the length of the mixed trace the cache and fleet gates
// serve: the Table I use-case blend over the gate slot with its payload
// seed pinned, so the trace revisits only the mix's three distinct
// scenario coordinates — exactly the regime the service-time cache
// exists for.
const gateJobs = 24

// eq renders a byte-identity verdict.
var eq = map[bool]string{true: "==", false: "!="}

// cacheGate serves the mixed trace cold, cached and warm.
func cacheGate(doc *report.Document) ([]string, error) {
	base := gateChain()
	trace := sched.MixedTrace(sched.TableIMix(&base), gateJobs, 2, 1)
	cache := timecache.New(0)
	var out [3]bytes.Buffer
	var sums [3]report.ServiceSummary
	for i, c := range []*timecache.Cache{nil, cache, cache} { // cold, cached, warm
		s := &sched.Scheduler{Cfg: sched.Config{Servers: 2, Seed: 1, Cache: c}}
		var err error
		if sums[i], err = s.WriteJSONL(&out[i], trace); err != nil {
			return nil, err
		}
	}
	doc.Service = &sums[2]
	exact := bytes.Equal(out[0].Bytes(), out[1].Bytes()) && bytes.Equal(out[0].Bytes(), out[2].Bytes())
	cold, warm := sums[0].Host, sums[2].Host
	speedup := 0.0
	if cold.SlotsPerSec > 0 {
		speedup = warm.SlotsPerSec / cold.SlotsPerSec
	}
	fmt.Printf("benchgate: cache gate on the %d-job mixed trace: cached bytes %s cold, warm pass %d hits / %d misses, host %.0f slots/s (%.1fx cold)\n",
		gateJobs, eq[exact], warm.CacheHits, warm.CacheMisses, warm.SlotsPerSec, speedup)
	switch {
	case !exact:
		return []string{"benchgate: FAIL — cached mixed-trace replay is not byte-identical to the cold run"}, nil
	case warm.CacheMisses != 0 || warm.CacheHits != int64(len(trace)):
		return []string{"benchgate: FAIL — warm cache pass missed (every gate-trace coordinate should be memoized)"}, nil
	}
	return nil, nil
}

// calibrationClusters are the geometries the analytic timing model is
// calibrated for: the two stock clusters of the paper.
func calibrationClusters() []*arch.Config {
	return []*arch.Config{arch.MemPool(), arch.TeraPool()}
}

// calibrationGate re-measures the calibration artifact's holdout grid.
func calibrationGate(doc *report.Document, path string) ([]string, error) {
	model, err := timing.Load(path)
	if err != nil {
		return nil, fmt.Errorf("%w (regenerate with `go run ./cmd/benchgate -update-calibration`)", err)
	}
	sum := &report.CalibrationSummary{Schema: timing.Schema, BudgetP95: model.Budget()}
	doc.Calibration = sum
	over := false
	for _, cl := range calibrationClusters() {
		stats, err := model.Evaluate(cl, timing.HoldoutGrid())
		if err != nil {
			return nil, err
		}
		sum.Clusters = append(sum.Clusters, report.CalibrationClusterError{
			Cluster: cl.Name,
			Points:  len(stats.Points),
			P50:     stats.P50,
			P95:     stats.P95,
			Max:     stats.Max,
		})
		fmt.Printf("benchgate: calibration gate on %s: holdout |rel err| p50 %.2f%% / p95 %.2f%% / max %.2f%% over %d points (budget p95 <= %.0f%%)\n",
			cl.Name, 100*stats.P50, 100*stats.P95, 100*stats.Max, len(stats.Points), 100*sum.BudgetP95)
		over = over || stats.P95 > sum.BudgetP95
	}
	if !over {
		return nil, nil
	}
	return []string{
		fmt.Sprintf("benchgate: FAIL — analytic timing exceeds its held-out error budget (p95 > %.0f%%) against %s", 100*sum.BudgetP95, path),
		"benchgate: if the timing change is intentional, refit with: go run ./cmd/benchgate -update-calibration",
	}, nil
}

// fleetGateCells is the fleet gate's deployment size; its offered
// traffic is the cache gate's mixed trace put on a TDL-B 30 Hz mobile
// channel (handover and SINR-aware routing need evolving per-UE link
// state), drawn from the fleet's UE population.
const fleetGateCells = 3

// fleetGate serves the mobile trace through a 3-cell fleet.
func fleetGate(doc *report.Document) ([]string, error) {
	base := sched.Mobile(gateChain(), channel.TDLB, 30, 0)
	trace := fleet.MixedTrace(fleetGateCells, sched.TableIMix(&base), gateJobs, 2, 1)
	var out [3]bytes.Buffer
	var sums [3]report.FleetSummary
	// One worker uncached is the reference; eight workers, then the
	// cache, must reproduce its bytes.
	for i, workers := range []int{1, 8, 0} {
		f := &fleet.Fleet{Cfg: fleet.Config{
			Cells:   fleet.Homogeneous(fleetGateCells, fleet.Cell{Servers: 2}),
			Policy:  fleet.SINRAware,
			Workers: workers,
			Seed:    1,
		}}
		if i == 2 {
			f.Cfg.Cache = timecache.New(0)
		}
		var err error
		if sums[i], err = f.WriteJSONL(&out[i], trace); err != nil {
			return nil, err
		}
	}
	doc.Fleet = &sums[0]
	workersOK, cachedOK := bytes.Equal(out[0].Bytes(), out[1].Bytes()), bytes.Equal(out[0].Bytes(), out[2].Bytes())
	fmt.Printf("benchgate: fleet gate on the %d-job mobile trace: %d-cell bytes %s across workers, %s under cache; %d handover(s) among %d mobile UE(s)\n",
		gateJobs, fleetGateCells, eq[workersOK], eq[cachedOK], sums[0].Handovers, sums[0].MobileUEs)
	switch {
	case !workersOK:
		return []string{"benchgate: FAIL — fleet stream differs across measurement worker counts"}, nil
	case !cachedOK:
		return []string{"benchgate: FAIL — fleet stream differs under the service-time cache"}, nil
	}
	return nil, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	baselinePath := flag.String("baseline", "testdata/baseline_kernels.json",
		"committed baseline document to gate against")
	outPath := flag.String("out", "", "also write the fresh document to this file")
	calibrationPath := flag.String("calibration", timing.DefaultPath,
		"committed analytic-timing calibration artifact to gate against")
	updateCal := flag.Bool("update-calibration", false,
		"refit the analytic timing model on the golden fit grid, rewrite -calibration, then run only the calibration gate")
	flag.Parse()

	calibration := gate{"calibration", func(doc *report.Document) ([]string, error) {
		return calibrationGate(doc, *calibrationPath)
	}}
	gates := []gate{
		{"kernel", func(doc *report.Document) ([]string, error) { return kernelGate(doc, *baselinePath) }},
		{"layout", layoutGate},
		{"cache", cacheGate},
		calibration,
		{"fleet", fleetGate},
	}
	if *updateCal {
		// The fit is deterministic: an unchanged tree reproduces the
		// committed artifact byte for byte.
		cal, err := timing.Calibrate(calibrationClusters(), timing.DefaultBudgetP95)
		if err == nil {
			err = cal.WriteFile(*calibrationPath)
		}
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %s\n", *calibrationPath)
		gates = []gate{calibration}
	}

	doc := report.NewDocument("benchgate")
	var fails []string
	for _, g := range gates {
		f, err := g.run(doc)
		if err != nil {
			log.Printf("%s gate: %v", g.name, err)
			os.Exit(2)
		}
		fails = append(fails, f...)
	}
	if *outPath != "" {
		if err := doc.WriteFile(*outPath); err != nil {
			log.Print(err)
			os.Exit(2)
		}
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Println(f)
		}
		os.Exit(1)
	}
	fmt.Println("benchgate: OK — every gate holds")
}
