// Command benchgate is the deterministic performance gate: it runs the
// quick experiment subset (or loads a previously emitted document) and
// diffs it, record by record and cycle by cycle, against the committed
// baseline, then runs the spatial-pipelining layout gate. Because the
// simulator is bit-reproducible, the baseline comparison is exact — any
// drift is a real performance change, so the gate fails on a single
// cycle of difference in either direction.
//
// The layout gate sweeps chain-stage partition layouts (sequential plus
// the default partition-split ladder) over the small-allocation gate
// slot on stock MemPool and requires the best pipelined layout's slot
// throughput to be at least the sequential layout's: the spatially
// pipelined executor must keep paying for itself. The sweep's slot
// records are included in the -out document, so the CI artifact carries
// the per-layout Gb/s trajectory.
//
// The cache gate serves a repeated-coordinate mixed trace three times —
// cold, through a fresh service-time cache, and again through the
// warmed cache — and requires all three JSONL streams byte-identical
// with the warm pass all hits: the memoized fast path
// (internal/timecache) can never silently diverge from the
// cycle-accurate truth. The warm run's summary (host slots/sec, cache
// hit rate) is embedded in the -out document as the artifact's
// "service" section.
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
// embedded in the -out document as the artifact's "calibration"
// section.
//
// The fleet gate serves a mobile mixed trace through the multi-cell
// fleet layer (internal/fleet) and requires the serving loop's
// determinism contract to survive sharding: a 3-cell SINR-routed
// fleet's stream must be byte-identical across measurement worker
// counts and under the service-time cache. The 3-cell fleet summary
// (per-cell service, handovers) is embedded in the -out document as
// the artifact's "fleet" section.
//
// Gating runs also time the cycle-accurate reference slots on the host
// (the MemPool gate slot and the full-scale 256-subcarrier TeraPool
// slot) and embed the wall-clock slots/sec as the artifact's "host"
// section, printing old -> new against the newest committed BENCH
// artifact that has host numbers. The numbers are host-specific and
// never diffed; the CI host-throughput smoke step (-host-smoke) gates
// the gate slot's best-run wall time against them instead, failing on
// a regression beyond -host-gate percent (see docs/ARCHITECTURE.md,
// "Engine performance model").
//
// Usage:
//
//	benchgate [-baseline testdata/baseline_kernels.json]
//	          [-calibration testdata/calibration.json]
//	          [-fresh BENCH.json] [-out BENCH_2026-07-26.json]
//	benchgate -update-calibration
//	benchgate -host-smoke [-host-gate 25]
//
// With no -fresh, benchgate runs the quick subset itself (the layout
// gate always runs live). -out additionally writes the fresh document
// (the CI workflow uploads it as the per-commit benchmark artifact).
// -update-calibration refits the analytic timing model on the golden
// fit grid and rewrites the committed artifact instead of gating.
// -host-smoke measures only the gate slot's host wall time and exits.
//
// Exit status: 0 when the tree reproduces the baseline exactly and the
// layout, cache, calibration and fleet gates hold, 1 on kernel drift
// (the report distinguishes regressions from improvements — both gate,
// because baselines must be regenerated deliberately with `go run
// ./cmd/kernelbench -update-baseline`) or a layout-, cache-,
// calibration- or fleet-gate failure, 2 on operational errors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

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

// calibrationClusters are the geometries the analytic timing model is
// calibrated for: the two stock clusters of the paper.
func calibrationClusters() []*arch.Config {
	return []*arch.Config{arch.MemPool(), arch.TeraPool()}
}

// updateCalibration refits the analytic timing model on the full fit
// grid — minutes of cycle-accurate golden runs — and rewrites the
// committed artifact. The fit is deterministic, so an unchanged tree
// reproduces the artifact byte for byte.
func updateCalibration(path string) error {
	cal, err := timing.Calibrate(calibrationClusters(), timing.DefaultBudgetP95)
	if err != nil {
		return err
	}
	if err := cal.WriteFile(path); err != nil {
		return err
	}
	model, err := timing.NewModel(cal)
	if err != nil {
		return err
	}
	for _, cl := range calibrationClusters() {
		stats, err := model.Evaluate(cl, timing.HoldoutGrid())
		if err != nil {
			return err
		}
		fmt.Printf("benchgate: calibrated %s: holdout |rel err| p50 %.2f%% / p95 %.2f%% / max %.2f%% over %d points (budget p95 <= %.0f%%)\n",
			cl.Name, 100*stats.P50, 100*stats.P95, 100*stats.Max, len(stats.Points), 100*cal.BudgetP95)
	}
	fmt.Printf("benchgate: wrote %s\n", path)
	return nil
}

// runCalibrationGate loads the committed calibration and re-measures
// the held-out grid cycle-accurately on every calibrated cluster; the
// gate holds when each cluster's P95 relative total-cycle error stays
// within the artifact's committed budget. The summary rides along in
// the BENCH artifact.
func runCalibrationGate(path string) (*report.CalibrationSummary, bool, error) {
	model, err := timing.Load(path)
	if err != nil {
		return nil, false, fmt.Errorf("%w (regenerate with `go run ./cmd/benchgate -update-calibration`)", err)
	}
	sum := &report.CalibrationSummary{Schema: timing.Schema, BudgetP95: model.Budget()}
	ok := true
	for _, cl := range calibrationClusters() {
		stats, err := model.Evaluate(cl, timing.HoldoutGrid())
		if err != nil {
			return nil, false, err
		}
		sum.Clusters = append(sum.Clusters, report.CalibrationClusterError{
			Cluster: cl.Name,
			Points:  len(stats.Points),
			P50:     stats.P50,
			P95:     stats.P95,
			Max:     stats.Max,
		})
		if stats.P95 > model.Budget() {
			ok = false
		}
	}
	return sum, ok, nil
}

// gateChain is the layout-gate slot: a small PRB allocation (64
// subcarriers) on stock MemPool, where per-kernel parallelism saturates
// well below the cluster size — exactly the regime the spatially
// pipelined layouts exist for.
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

// runLayoutSweep measures the gate slot under every layout of the
// default sweep and returns the slot records in sweep order.
func runLayoutSweep() ([]report.SlotRecord, error) {
	pool := engine.NewMachines()
	var recs []report.SlotRecord
	for _, sc := range campaign.LayoutSweep(gateChain(), nil) {
		cfg := *sc.Chain
		m := pool.Get(cfg.Cluster)
		rec, err := pusch.RunChainRecordOn(m, cfg)
		pool.Put(m)
		if err != nil {
			return nil, fmt.Errorf("layout sweep %s: %w", sc.Name, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// cacheGateJobs is the repeated-coordinate mixed trace the cache gate
// serves: the Table I use-case blend over the gate slot with its
// payload seed pinned, so the trace revisits only the mix's three
// distinct scenario coordinates — exactly the regime the service-time
// cache exists for.
const cacheGateJobs = 24

func cacheGateTrace() []sched.Job {
	base := gateChain()
	return sched.MixedTrace(sched.TableIMix(&base), cacheGateJobs, 2, 1)
}

// cacheVerdict is the outcome of the cache-exactness gate.
type cacheVerdict struct {
	exact   bool    // cached and warm streams byte-equal to cold
	allHits bool    // the warm pass never touched the simulator
	speedup float64 // warm host slots/sec over cold
	warmSum report.ServiceSummary
}

// runCacheGate serves the mixed trace three times — cold (no cache),
// with a fresh cache, and again with the now-warm cache — and requires
// all three JSONL streams byte-identical. The simulator is
// deterministic, so the comparison is exact: a single differing byte
// means the fast path diverged from the cycle-accurate truth.
func runCacheGate() cacheVerdict {
	trace := cacheGateTrace()
	serve := func(cache *timecache.Cache) ([]byte, report.ServiceSummary) {
		s := &sched.Scheduler{Cfg: sched.Config{Servers: 2, Seed: 1, Cache: cache}}
		var buf bytes.Buffer
		sum, err := s.WriteJSONL(&buf, trace)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		return buf.Bytes(), sum
	}
	coldBytes, coldSum := serve(nil)
	cache := timecache.New(0)
	cachedBytes, _ := serve(cache)
	warmBytes, warmSum := serve(cache)
	v := cacheVerdict{
		exact:   bytes.Equal(coldBytes, cachedBytes) && bytes.Equal(coldBytes, warmBytes),
		warmSum: warmSum,
	}
	if h := warmSum.Host; h != nil {
		v.allHits = h.CacheMisses == 0 && h.CacheHits == int64(len(trace))
		if coldSum.Host != nil && coldSum.Host.SlotsPerSec > 0 {
			v.speedup = h.SlotsPerSec / coldSum.Host.SlotsPerSec
		}
	}
	return v
}

// fleetGateCells is the fleet gate's deployment size; its offered
// traffic is the cache gate's mixed trace put on a TDL-B 30 Hz mobile
// channel (handover and SINR-aware routing need evolving per-UE link
// state), drawn from the fleet's UE population.
const fleetGateCells = 3

// fleetVerdict is the outcome of the fleet-serving gate.
type fleetVerdict struct {
	workers bool // 3-cell stream byte-identical across worker counts
	cached  bool // 3-cell cached stream byte-identical to uncached
	sum     report.FleetSummary
}

// runFleetGate pins the fleet layer's determinism contract: a 3-cell
// SINR-routed fleet must emit identical bytes across measurement worker
// counts and under the service-time cache. The 3-cell summary rides
// along in the artifact.
func runFleetGate() fleetVerdict {
	base := sched.Mobile(gateChain(), channel.TDLB, 30, 0)
	trace := fleet.MixedTrace(fleetGateCells, sched.TableIMix(&base), cacheGateJobs, 2, 1)
	serve := func(workers int, cache *timecache.Cache) ([]byte, report.FleetSummary) {
		f := &fleet.Fleet{Cfg: fleet.Config{
			Cells:   fleet.Homogeneous(fleetGateCells, fleet.Cell{Servers: 2}),
			Policy:  fleet.SINRAware,
			Workers: workers,
			Seed:    1,
			Cache:   cache,
		}}
		var buf bytes.Buffer
		sum, err := f.WriteJSONL(&buf, trace)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		return buf.Bytes(), sum
	}

	ref, sum := serve(1, nil)
	wide, _ := serve(8, nil)
	cached, _ := serve(0, timecache.New(0))
	return fleetVerdict{
		workers: bytes.Equal(ref, wide),
		cached:  bytes.Equal(ref, cached),
		sum:     sum,
	}
}

// hostSlot is one reference configuration of the host-throughput
// section.
type hostSlot struct {
	name string
	runs int
	cfg  pusch.ChainConfig
}

// hostSlots are the reference slots the host section measures: the
// layout-gate slot on stock MemPool, plus the full-scale 256-subcarrier
// slot on stock TeraPool (smokeOnly drops the latter — the CI smoke
// step gates the MemPool slot only).
func hostSlots(smokeOnly bool) []hostSlot {
	gate := hostSlot{name: "mempool-64sc", runs: 5, cfg: gateChain()}
	if smokeOnly {
		return []hostSlot{gate}
	}
	tera := gateChain()
	tera.Cluster = arch.TeraPool()
	tera.NSC = 256
	return []hostSlot{gate, {name: "terapool-256sc", runs: 3, cfg: tera}}
}

// measureHost times the reference slots cycle-accurately on a reused
// machine: one untimed warm-up per slot (first-touch allocation), then
// runs timed executions. BestRunSeconds carries the fastest run — the
// quantity the smoke gate compares, being far more stable than a mean
// on a noisy shared runner.
func measureHost(slots []hostSlot) (*report.HostSection, error) {
	pool := engine.NewMachines()
	sec := &report.HostSection{}
	for _, hs := range slots {
		m := pool.Get(hs.cfg.Cluster)
		if _, err := pusch.RunChainRecordOn(m, hs.cfg); err != nil {
			return nil, fmt.Errorf("host slot %s warm-up: %w", hs.name, err)
		}
		var total, best float64
		for i := 0; i < hs.runs; i++ {
			m.Reset()
			t0 := time.Now()
			if _, err := pusch.RunChainRecordOn(m, hs.cfg); err != nil {
				return nil, fmt.Errorf("host slot %s: %w", hs.name, err)
			}
			d := time.Since(t0).Seconds()
			total += d
			if best == 0 || d < best {
				best = d
			}
		}
		pool.Put(m)
		sec.Slots = append(sec.Slots, report.HostSlotRecord{
			Name:           hs.name,
			Cluster:        hs.cfg.Cluster.Name,
			NSC:            hs.cfg.NSC,
			Runs:           hs.runs,
			WallSeconds:    total,
			SlotsPerSec:    float64(hs.runs) / total,
			BestRunSeconds: best,
		})
	}
	return sec, nil
}

// committedHostBaseline loads the newest committed BENCH_*.json (they
// sort by date) that carries a host section, for the old -> new
// throughput comparison. Returns nils when none does.
func committedHostBaseline() (*report.Document, string) {
	paths, _ := filepath.Glob("BENCH_*.json")
	sort.Strings(paths)
	for i := len(paths) - 1; i >= 0; i-- {
		d, err := report.Load(paths[i])
		if err == nil && d.Host != nil && len(d.Host.Slots) > 0 {
			return d, paths[i]
		}
	}
	return nil, ""
}

// oldBestRun returns the comparable best-run seconds of a committed
// host record (falling back to the mean when the field is absent).
func oldBestRun(r *report.HostSlotRecord) float64 {
	if r.BestRunSeconds > 0 {
		return r.BestRunSeconds
	}
	if r.SlotsPerSec > 0 {
		return 1 / r.SlotsPerSec
	}
	return 0
}

// runHostSmoke is the CI host-throughput smoke gate: measure the gate
// slot's wall time and fail when its best run regresses more than pct
// percent against the newest committed BENCH host numbers. Passes with
// a note when no committed artifact has host numbers yet.
func runHostSmoke(pct float64) int {
	slots := hostSlots(true)
	slots[0].runs = 10 // extra runs: the smoke verdict hangs on the minimum
	sec, err := measureHost(slots)
	if err != nil {
		log.Print(err)
		return 2
	}
	rec := sec.Slots[0]
	baseDoc, basePath := committedHostBaseline()
	var old *report.HostSlotRecord
	if baseDoc != nil {
		old = baseDoc.Host.Find(rec.Name)
	}
	if old == nil || oldBestRun(old) <= 0 {
		fmt.Printf("benchgate: host smoke: %s %.1f slots/s (best run %.1f ms); no committed BENCH host baseline — passing with note\n",
			rec.Name, rec.SlotsPerSec, 1000*rec.BestRunSeconds)
		return 0
	}
	limit := oldBestRun(old) * (1 + pct/100)
	fmt.Printf("benchgate: host smoke: %s best run %.1f ms vs %.1f ms committed in %s (limit +%.0f%% = %.1f ms)\n",
		rec.Name, 1000*rec.BestRunSeconds, 1000*oldBestRun(old), basePath, pct, 1000*limit)
	if rec.BestRunSeconds > limit {
		fmt.Printf("benchgate: FAIL — gate-slot wall time regressed more than %.0f%% against %s\n", pct, basePath)
		return 1
	}
	return 0
}

// layoutVerdict finds the sequential reference and the best pipelined
// layout in the sweep records and reports whether the gate holds.
func layoutVerdict(recs []report.SlotRecord) (seq, best report.SlotRecord, ok bool) {
	found := false
	for _, r := range recs {
		switch {
		case r.Layout == "":
			seq = r
		case !found || r.ThroughputGbps > best.ThroughputGbps:
			best = r
			found = true
		}
	}
	return seq, best, found && best.ThroughputGbps >= seq.ThroughputGbps
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	baselinePath := flag.String("baseline", "testdata/baseline_kernels.json",
		"committed baseline document to gate against")
	freshPath := flag.String("fresh", "",
		"compare this previously emitted document instead of running the quick subset")
	outPath := flag.String("out", "", "also write the fresh document to this file")
	calibrationPath := flag.String("calibration", timing.DefaultPath,
		"committed analytic-timing calibration artifact to gate against")
	updateCal := flag.Bool("update-calibration", false,
		"refit the analytic timing model on the golden fit grid and rewrite -calibration, then exit")
	hostSmoke := flag.Bool("host-smoke", false,
		"measure host wall time of the gate slot only and gate it against the newest committed BENCH_*.json host section, then exit")
	hostGate := flag.Float64("host-gate", 25,
		"host smoke: maximum allowed best-run wall-time regression in percent")
	flag.Parse()

	if *updateCal {
		if err := updateCalibration(*calibrationPath); err != nil {
			log.Print(err)
			os.Exit(2)
		}
		return
	}

	if *hostSmoke {
		os.Exit(runHostSmoke(*hostGate))
	}

	base, err := report.Load(*baselinePath)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	var fresh *report.Document
	if *freshPath != "" {
		fresh, err = report.Load(*freshPath)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
	} else {
		records, errs := bench.RunExperiments(bench.QuickExperiments())
		for _, err := range errs {
			log.Print(err)
		}
		if len(errs) > 0 {
			os.Exit(2)
		}
		fresh = report.NewDocument("benchgate")
		fresh.Kernels = records
	}

	// Layout gate: always measured live (it is cheap and relational, not
	// baseline-pinned). The sweep records ride along in the artifact.
	sweep, err := runLayoutSweep()
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	fresh.Slots = sweep

	// Cache-exactness gate: the memoized fast path must reproduce the
	// cycle-accurate cold path byte for byte. The warm summary (host
	// slots/sec, cache hit rate) rides along in the artifact.
	cv := runCacheGate()
	fresh.Service = &cv.warmSum

	// Calibration gate: the analytic timing model must hold its
	// committed held-out error budget against freshly measured goldens.
	// The per-cluster error summary rides along in the artifact.
	calSum, calOK, err := runCalibrationGate(*calibrationPath)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	fresh.Calibration = calSum

	// Fleet gate: multi-cell serving must hold the same determinism
	// contract as the plain scheduler — streams byte-identical across
	// worker counts and under the cache. The 3-cell summary rides along
	// in the artifact.
	fv := runFleetGate()
	fleetSum := fv.sum
	fresh.Fleet = &fleetSum

	// Host-throughput section: wall-clock slots/sec of the reference
	// slots on this host. Informational (never diffed — numbers are
	// host-specific), but committed per artifact so the engine hot-path
	// work has a recorded trajectory and the CI smoke step has numbers
	// to gate against.
	host, err := measureHost(hostSlots(false))
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	fresh.Host = host
	// Resolve the old numbers before -out lands on disk: the fresh
	// artifact is often named BENCH_<today>.json and would otherwise be
	// its own baseline.
	hostBase, hostBasePath := committedHostBaseline()

	if *outPath != "" {
		if err := fresh.WriteFile(*outPath); err != nil {
			log.Print(err)
			os.Exit(2)
		}
	}

	// The committed baseline pins kernel records only; the layout sweep
	// is gated by the throughput comparison below, so strip slots from
	// the diffed view to avoid spurious "unexpected record" drift.
	kernelView := &report.Document{Schema: fresh.Schema, Tool: fresh.Tool, Kernels: fresh.Kernels}
	drifts := report.Diff(base, kernelView)

	seq, best, layoutOK := layoutVerdict(sweep)
	gain := 0.0
	if seq.ThroughputGbps > 0 {
		gain = 100 * (best.ThroughputGbps/seq.ThroughputGbps - 1)
	}
	fmt.Printf("benchgate: layout gate on %s (%d-SC slot): sequential %.4f Gb/s (%d cycles), best pipelined %s %.4f Gb/s (%d cycles, %+.1f%%)\n",
		seq.Cluster, gateChain().NSC, seq.ThroughputGbps, seq.TotalCycles,
		best.Layout, best.ThroughputGbps, best.TotalCycles, gain)

	// Host throughput, old -> new against the newest committed artifact
	// with host numbers (informational: the cycle gates above are the
	// correctness story, this line is the host-cost story).
	for _, rec := range host.Slots {
		var old *report.HostSlotRecord
		if hostBase != nil {
			old = hostBase.Host.Find(rec.Name)
		}
		if old != nil && old.SlotsPerSec > 0 {
			fmt.Printf("benchgate: host throughput %s: %.1f -> %.1f slots/s (%+.0f%% vs %s)\n",
				rec.Name, old.SlotsPerSec, rec.SlotsPerSec,
				100*(rec.SlotsPerSec/old.SlotsPerSec-1), hostBasePath)
		} else {
			fmt.Printf("benchgate: host throughput %s: %.1f slots/s (no committed baseline yet)\n",
				rec.Name, rec.SlotsPerSec)
		}
	}

	cacheOK := cv.exact && cv.allHits
	if h := cv.warmSum.Host; h != nil {
		fmt.Printf("benchgate: cache gate on the %d-job mixed trace: cached bytes %s cold, warm pass %d hits / %d misses, host %.0f slots/s (%.1fx cold)\n",
			cacheGateJobs, map[bool]string{true: "==", false: "!="}[cv.exact],
			h.CacheHits, h.CacheMisses, h.SlotsPerSec, cv.speedup)
	}

	for _, ce := range calSum.Clusters {
		fmt.Printf("benchgate: calibration gate on %s: holdout |rel err| p50 %.2f%% / p95 %.2f%% / max %.2f%% over %d points (budget p95 <= %.0f%%)\n",
			ce.Cluster, 100*ce.P50, 100*ce.P95, 100*ce.Max, ce.Points, 100*calSum.BudgetP95)
	}

	fleetOK := fv.workers && fv.cached
	eq := map[bool]string{true: "==", false: "!="}
	fmt.Printf("benchgate: fleet gate on the %d-job mobile trace: 3-cell bytes %s across workers, %s under cache; %d handover(s) among %d mobile UE(s)\n",
		cacheGateJobs, eq[fv.workers], eq[fv.cached], fv.sum.Handovers, fv.sum.MobileUEs)

	if len(drifts) == 0 && layoutOK && cacheOK && calOK && fleetOK {
		fmt.Printf("benchgate: OK — %d kernel records reproduce %s cycle for cycle, pipelined >= sequential, cached replay exact, analytic timing within budget, fleet serving deterministic across workers and cache\n",
			len(fresh.Kernels), *baselinePath)
		return
	}
	regressions := 0
	for _, d := range drifts {
		tag := "drift     "
		if d.Regression() {
			tag = "REGRESSION"
			regressions++
		}
		fmt.Printf("%s  %s\n", tag, d)
	}
	if len(drifts) > 0 {
		fmt.Printf("benchgate: FAIL — %d drifting records (%d regressions) against %s\n",
			len(drifts), regressions, *baselinePath)
		fmt.Println("benchgate: if the change is intentional, regenerate with: go run ./cmd/kernelbench -update-baseline")
	}
	if !layoutOK {
		fmt.Println("benchgate: FAIL — best pipelined layout no longer reaches sequential throughput on the gate slot")
	}
	if !cacheOK {
		if !cv.exact {
			fmt.Println("benchgate: FAIL — cached mixed-trace replay is not byte-identical to the cold run")
		} else {
			fmt.Println("benchgate: FAIL — warm cache pass missed (every gate-trace coordinate should be memoized)")
		}
	}
	if !calOK {
		fmt.Printf("benchgate: FAIL — analytic timing exceeds its held-out error budget (p95 > %.0f%%) against %s\n",
			100*calSum.BudgetP95, *calibrationPath)
		fmt.Println("benchgate: if the timing change is intentional, refit with: go run ./cmd/benchgate -update-calibration")
	}
	if !fleetOK {
		switch {
		case !fv.workers:
			fmt.Println("benchgate: FAIL — fleet stream differs across measurement worker counts")
		default:
			fmt.Println("benchgate: FAIL — fleet stream differs under the service-time cache")
		}
	}
	os.Exit(1)
}
