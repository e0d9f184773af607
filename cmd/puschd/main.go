// Command puschd is the streaming basestation service: it admits a
// trace of PUSCH slot jobs, serves it through the slot-traffic
// scheduler (internal/sched) on pooled simulator machines, and streams
// one report.SlotRecord-compatible JSON line per served job followed by
// one final summary line (kind "summary") with the service-level
// metrics: offered and served Gb/s, mean/max queue-wait cycles, drop
// rate, server utilization. A human-readable digest of the same
// summary goes to stderr.
//
// Jobs come from a JSONL spec stream (-in file, or "-" for stdin; see
// sched.Spec for the line format — zero fields inherit the server
// defaults) or from a built-in traffic generator:
//
//	-gen poisson    memoryless arrivals at -rate slots/ms (default)
//	-gen bursty     on/off bursts: -burst slots per burst, -gap-ms off time
//	-gen mix        Poisson arrivals over the Table I 1/2/4-UE use-case blend
//	-gen campaign   the -snr-min..-snr-max SNR sweep served as a stream
//
// Output is byte-identical for the same trace, seed and service
// discipline, across runs and across -workers counts; -trace-out saves
// the offered trace as replayable JSONL specs.
//
// Usage:
//
//	puschd [-gen poisson|bursty|mix|campaign] [-jobs N] [-rate slots/ms]
//	       [-burst N] [-gap-ms ms] [-snr-min dB] [-snr-max dB]
//	       [-in file|-] [-trace-out file]
//	       [-cluster mempool|terapool] [-scheme qpsk|16qam|64qam] [-snr dB]
//	       [-channel iid|tdl-a|tdl-b|tdl-c] [-doppler Hz] [-rician-k K]
//	       [-layout sequential|pipe|pipe/f64/b32/d64]
//	       [-cache] [-cache-cap N] [-cache-file file]
//	       [-timing analytic] [-calibration file]
//	       [-cells N] [-cell-config file] [-balance rr|least-queue|sinr]
//	       [-metrics addr]
//	       [-servers N] [-queue N] [-workers N] [-seed N]
//
// -cells/-cell-config/-balance promote the server to a multi-cell
// fleet (internal/fleet): -cells N serves through N identical cells
// (each with its own -servers/-queue discipline), -cell-config reads a
// JSON array of per-cell overrides ({"name", "cluster", "layout",
// "timing", "servers", "queue"} — empty fields inherit the flag
// defaults), and -balance picks the routing policy (round-robin,
// least-queue, or sinr, under which mobile UEs hand over between cells
// as their deterministic per-cell gains cross). In fleet mode the
// -cluster/-layout/-timing flags become the default cell's serving
// class (jobs that pin their own keep them), generated traces draw
// from a UE population scaled to the fleet, and the stream ends with
// one kind="cell-summary" line per cell plus a kind="fleet-summary"
// line. A 1-cell fleet is byte-identical to the plain scheduler.
//
// -cache memoizes measured slot service times by scenario coordinate
// (internal/timecache): repeated coordinates — trace replays, warm
// starts — skip the cycle-accurate simulation entirely, with
// byte-identical output (the cache is exact by construction).
// -cache-file warm-starts the cache from a JSONL file and saves it
// back after serving, so a second run of the same trace is all hits.
//
// -timing analytic makes the calibrated closed-form cycle model
// (internal/timing, loaded from -calibration, default
// testdata/calibration.json) the default timing path: served slots'
// cycle figures are model predictions within the committed error
// budget instead of engine measurements, records and the summary are
// stamped "analytic", and the cache is bypassed. Individual job specs
// can pin their own path with a "timing" field — "cycle-accurate"
// forces the engine even under an analytic default. docs/TIMING.md
// specifies the model and when to pick each path.
//
// -channel/-doppler/-rician-k put the served cell on a fading channel
// (internal/channel): generated jobs are assigned to a population of
// mobile UEs whose per-UE link state evolves coherently across their
// slots, and served records carry the channel coordinates. The default
// (no flags) keeps the legacy fresh-iid-draw-per-slot channel.
//
// -metrics addr serves live introspection over HTTP (internal/obs): a
// Prometheus text-exposition /metrics — queue-wait and sojourn
// histograms, outcome counters, queue-depth distribution over virtual
// time, cache and machine-pool families, per-cell and handover series
// in fleet mode — plus the standard net/http/pprof tree. All metric
// values are functions of simulated state only, so they are identical
// across runs and -workers counts; the endpoint stays live after the
// run until SIGINT/SIGTERM. The stderr digest adds served wait/latency
// p50/p95/p99 lines from the same run. See docs/OBSERVABILITY.md.
//
// -layout maps each served slot's chain stages onto core partitions:
// "sequential" (default) runs the stages back to back on the whole
// cluster, "pipe" uses the cluster's stock spatially pipelined split,
// and "pipe/f<F>/b<B>/d<D>" pins an explicit one. Individual job specs
// can override it per slot with their own layout field.
//
// Examples:
//
//	puschd -gen poisson -jobs 100 -rate 2 -servers 2
//	puschd -gen mix -jobs 50 -rate 4 -queue 4
//	puschd -gen poisson -channel tdl-b -doppler 30        # mobile UEs on TDL-B
//	puschd -gen mix -channel tdl-b -doppler 30 -cells 3 -balance sinr
//	puschd -cell-config cells.json -balance least-queue
//	puschd -in trace.jsonl -servers 1 -queue 2
//	puschd -gen poisson -jobs 20 -trace-out trace.jsonl   # save, then replay:
//	puschd -in trace.jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// maxJobs caps -jobs at about ten times the longest benchmarked trace
// (100k jobs), far below what would exhaust memory.
const maxJobs = 1 << 20

func main() {
	log.SetFlags(0)
	log.SetPrefix("puschd: ")
	inPath := flag.String("in", "", "JSONL job-spec stream to serve (a path, or - for stdin); empty uses -gen")
	gen := flag.String("gen", "poisson", "trace generator when -in is empty: poisson, bursty, mix or campaign")
	jobs := flag.Int("jobs", 100, "generated trace length in slots (at most 1048576)")
	rate := flag.Float64("rate", 2, "offered load in slots per millisecond of simulated time")
	burst := flag.Int("burst", 8, "bursty: slots per on-period")
	gapMs := flag.Float64("gap-ms", 2, "bursty: mean off-period in milliseconds")
	snrMin := flag.Float64("snr-min", 8, "campaign: first SNR point in dB")
	snrMax := flag.Float64("snr-max", 26, "campaign: last SNR point in dB")
	traceOut := flag.String("trace-out", "", "also write the offered trace as replayable JSONL specs to this file")
	clusterFlag := flag.String("cluster", "mempool", "default cluster for jobs that do not pin one: mempool or terapool")
	schemeFlag := flag.String("scheme", "qpsk", "default modulation: qpsk, 16qam or 64qam")
	snr := flag.Float64("snr", 20, "default SNR in dB")
	channelFlag := flag.String("channel", "", "fading profile: iid, tdl-a, tdl-b or tdl-c (empty = legacy per-slot iid draw)")
	doppler := flag.Float64("doppler", 0, "maximum Doppler shift in Hz (UE mobility; 0 = static fading)")
	ricianK := flag.Float64("rician-k", 0, "linear Rician K-factor on the strongest tap (0 = Rayleigh)")
	layoutFlag := flag.String("layout", "", "default chain-stage core layout: sequential, pipe, or pipe/f<F>/b<B>/d<D>")
	cacheFlag := flag.Bool("cache", false, "memoize slot service times by scenario coordinate (exact: cached replay is byte-identical)")
	cacheCap := flag.Int("cache-cap", 0, "service-time cache capacity in entries (0 = default)")
	cacheFile := flag.String("cache-file", "", "warm-start the service-time cache from this JSONL file and save it back after serving (implies -cache)")
	timingFlag := flag.String("timing", "", "default timing path for served slots: cycle-accurate (default) or analytic (calibrated closed-form model)")
	calibration := flag.String("calibration", timing.DefaultPath, "calibration artifact for -timing analytic")
	cellsFlag := flag.Int("cells", 1, "serve through a fleet of N identical cells (internal/fleet); 1 without other fleet flags keeps the plain scheduler")
	cellConfig := flag.String("cell-config", "", "JSON array of per-cell overrides (name, cluster, layout, timing, servers, queue); implies fleet mode")
	balance := flag.String("balance", "", "fleet load-balancing policy: round-robin (default), least-queue, or sinr; implies fleet mode")
	servers := flag.Int("servers", 1, "virtual slot processors serving the queue in simulated time")
	queue := flag.Int("queue", sched.DefaultQueueDepth, "bounded wait-queue depth in slots (0 = default, negative = no queue)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus metrics and net/http/pprof on this address (e.g. 127.0.0.1:9109); the endpoint stays live after serving until SIGINT/SIGTERM")
	workers := flag.Int("workers", 0, "host measurement goroutines (0 = GOMAXPROCS); never affects results")
	seed := flag.Uint64("seed", 1, "trace and payload base seed")
	flag.Parse()
	if *jobs > maxJobs {
		log.Fatalf("-jobs %d exceeds the cap of %d slots", *jobs, maxJobs)
	}
	if math.IsNaN(*rate) {
		log.Fatal("-rate is not a number")
	}
	if math.IsNaN(*gapMs) {
		log.Fatal("-gap-ms is not a number")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"snr", *snr}, {"doppler", *doppler}, {"rician-k", *ricianK}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			log.Fatalf("-%s %g is not a finite number", f.name, f.v)
		}
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		startMetrics(*metricsAddr, reg)
	}

	cluster, err := sched.ParseCluster(*clusterFlag)
	if err != nil {
		log.Fatal(err)
	}
	scheme, err := sched.ParseScheme(*schemeFlag)
	if err != nil {
		log.Fatal(err)
	}
	// The server's default slot: the same reduced-dimension chain the
	// campaign engine sweeps (the functional path keeps every
	// intermediate buffer resident, bounding NSC).
	base := pusch.ChainConfig{
		Cluster: cluster,
		NSC:     256, NR: 16, NB: 8, NL: 4,
		NSymb: 6, NPilot: 2,
		Scheme: scheme,
		SNRdB:  *snr,
	}
	layout, err := pusch.ParseLayout(*layoutFlag, cluster)
	if err != nil {
		log.Fatal(err)
	}
	mode, err := pusch.ParseTimingMode(*timingFlag)
	if err != nil {
		log.Fatal(err)
	}

	// Fleet mode: serving coordinates (cluster, layout, timing) become
	// the default CELL's class instead of being stamped into every
	// generated job, so per-cell overrides from -cell-config can take
	// effect; jobs that pin their own still win. The plain path keeps
	// stamping them into the base, byte-for-byte the pre-fleet server.
	fleetMode := *cellsFlag > 1 || *cellConfig != "" || *balance != ""
	var cells []fleet.Cell
	if fleetMode {
		base.Cluster = nil
		defCell := fleet.Cell{
			Cluster: cluster,
			Layout:  layout,
			Timing:  mode,
			Servers: *servers, QueueDepth: *queue,
		}
		if *cellConfig != "" {
			cells, err = fleet.LoadCells(*cellConfig, defCell)
			if err != nil {
				log.Fatal(err)
			}
			if *cellsFlag > 1 && *cellsFlag != len(cells) {
				log.Fatalf("-cells %d disagrees with %d cells in %s", *cellsFlag, len(cells), *cellConfig)
			}
		} else {
			cells = fleet.Homogeneous(*cellsFlag, defCell)
		}
	} else {
		base.Layout = layout
		base.Timing = mode
	}
	policy, err := fleet.ParsePolicy(*balance)
	if err != nil {
		log.Fatal(err)
	}

	var model *timing.Model
	needModel := mode == pusch.TimingAnalytic
	for _, c := range cells {
		needModel = needModel || c.Timing == pusch.TimingAnalytic
	}
	if needModel {
		model, err = timing.Load(*calibration)
		if err != nil {
			log.Fatalf("loading calibration: %v (regenerate with `go run ./cmd/benchgate -update-calibration`)", err)
		}
	}
	// An explicit fading profile (or any mobility/LOS parameter) makes
	// the generators serve mobile UEs: every generated job gets a per-UE
	// fading identity and an arrival-time channel coordinate, so one
	// UE's slots see a coherently evolving channel.
	if *channelFlag != "" || *doppler != 0 || *ricianK != 0 {
		profile, err := sched.ParseChannelProfile(*channelFlag)
		if err != nil {
			log.Fatal(err)
		}
		base = sched.Mobile(base, profile, *doppler, *ricianK)
	}

	// Generated traces draw their mobile-UE identities from a population
	// scaled to the deployment: cells × DefaultUEPopulation distinct UEs.
	pop := fleet.Population(len(cells))
	trace, err := buildTrace(*inPath, *gen, base, *jobs, *rate, *burst, *gapMs, *snrMin, *snrMax, *seed, pop)
	if err != nil {
		log.Fatal(err)
	}
	if len(trace) == 0 {
		log.Fatal("empty job trace")
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := sched.WriteSpecs(f, trace); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	var cache *timecache.Cache
	if *cacheFlag || *cacheFile != "" {
		cache = timecache.New(*cacheCap)
		if *cacheFile != "" {
			added, rejected, err := cache.LoadFile(*cacheFile)
			if err != nil {
				log.Fatal(err)
			}
			if added > 0 || rejected > 0 {
				fmt.Fprintf(os.Stderr, "puschd: cache warm-start: %d entries loaded, %d rejected from %s\n", added, rejected, *cacheFile)
			}
		}
	}

	var pool *engine.PoolStats
	var host *report.HostStats
	if fleetMode {
		f := &fleet.Fleet{Cfg: fleet.Config{
			Cells:   cells,
			Policy:  policy,
			Workers: *workers,
			Seed:    *seed,
			Cache:   cache,
			Model:   model,
			Metrics: reg,
		}}
		sum, err := f.WriteJSONL(os.Stdout, trace)
		if err != nil {
			log.Fatal(err)
		}
		pool, host = sum.Pool, sum.Host
		fmt.Fprintf(os.Stderr,
			"puschd: fleet of %d cell(s), %s: %d jobs over %.3f ms: %d served, %d dropped, %d failed (drop rate %.1f%%)\n",
			sum.Cells, sum.Policy, sum.Jobs, sum.HorizonMs, sum.Served, sum.Dropped, sum.Failed, sum.DropRate*100)
		fmt.Fprintf(os.Stderr,
			"puschd: offered %.3f Gb/s, served %.3f Gb/s; %d handover(s) among %d mobile UE(s); fleet utilization %.1f%%\n",
			sum.OfferedGbps, sum.ServedGbps, sum.Handovers, sum.MobileUEs, sum.Utilization*100)
		if sum.Served > 0 {
			fmt.Fprintf(os.Stderr,
				"puschd: served wait p50/p95/p99 %d/%d/%d cycles; latency p50/p95/p99 %d/%d/%d cycles\n",
				sum.WaitP50Cycles, sum.WaitP95Cycles, sum.WaitP99Cycles,
				sum.LatencyP50Cycles, sum.LatencyP95Cycles, sum.LatencyP99Cycles)
		}
		for c, cs := range sum.PerCell {
			name := cs.Name
			if name == "" {
				name = fmt.Sprintf("cell-%d", c)
			}
			fmt.Fprintf(os.Stderr,
				"puschd:   %s: %d served, %d dropped, %d failed; %.3f Gb/s served; utilization %.1f%% of %d server(s)\n",
				name, cs.Served, cs.Dropped, cs.Failed, cs.ServedGbps, cs.Utilization*100, cs.Servers)
		}
	} else {
		s := &sched.Scheduler{Cfg: sched.Config{
			Servers:    *servers,
			QueueDepth: *queue,
			Workers:    *workers,
			Seed:       *seed,
			Cache:      cache,
			Model:      model,
			Metrics:    reg,
		}}
		sum, err := s.WriteJSONL(os.Stdout, trace)
		if err != nil {
			log.Fatal(err)
		}
		pool, host = sum.Pool, sum.Host
		fmt.Fprintf(os.Stderr,
			"puschd: %d jobs over %.3f ms: %d served, %d dropped, %d failed (drop rate %.1f%%)\n",
			sum.Jobs, sum.HorizonMs, sum.Served, sum.Dropped, sum.Failed, sum.DropRate*100)
		fmt.Fprintf(os.Stderr,
			"puschd: offered %.3f Gb/s, served %.3f Gb/s; wait mean %.0f / max %d cycles; utilization %.1f%% of %d server(s)\n",
			sum.OfferedGbps, sum.ServedGbps, sum.MeanWaitCycles, sum.MaxWaitCycles, sum.Utilization*100, sum.Servers)
		if sum.Served > 0 {
			fmt.Fprintf(os.Stderr,
				"puschd: served wait p50/p95/p99 %d/%d/%d cycles; latency p50/p95/p99 %d/%d/%d cycles\n",
				sum.WaitP50Cycles, sum.WaitP95Cycles, sum.WaitP99Cycles,
				sum.LatencyP50Cycles, sum.LatencyP95Cycles, sum.LatencyP99Cycles)
		}
	}
	if cache != nil && *cacheFile != "" {
		if err := cache.SaveFile(*cacheFile); err != nil {
			log.Fatal(err)
		}
	}

	if pool != nil {
		fmt.Fprintf(os.Stderr,
			"puschd: machine pool: %d gets = %d built + %d reused, peak %d arenas\n",
			pool.Gets, pool.Builds, pool.Reuses, pool.Peak)
	}
	if host != nil {
		fmt.Fprintf(os.Stderr,
			"puschd: host: %.0f slots/s over %.2f s wall", host.SlotsPerSec, host.WallSeconds)
		if cache != nil {
			fmt.Fprintf(os.Stderr, "; cache %d hits / %d misses (%.1f%% hit rate, %d entries)",
				host.CacheHits, host.CacheMisses, host.CacheHitRate*100, cache.Len())
		}
		fmt.Fprintln(os.Stderr)
	}

	// With -metrics the endpoint outlives the run: the registry now
	// holds the full run's picture, so scrapes and pprof profiles stay
	// available until the operator interrupts.
	if *metricsAddr != "" {
		fmt.Fprintln(os.Stderr, "puschd: metrics endpoint stays live; SIGINT/SIGTERM to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
}

// startMetrics exposes the registry and the runtime profiler on addr: a
// Prometheus text-exposition /metrics plus the standard net/http/pprof
// tree, on a private mux so nothing else leaks onto the listener. The
// server runs for the life of the process; main blocks on a signal
// after the run when -metrics is set.
func startMetrics(addr string, reg *obs.Registry) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WriteProm(w); err != nil {
			log.Printf("metrics write: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "puschd: serving /metrics and /debug/pprof/ on http://%s\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Fatalf("metrics server: %v", err)
		}
	}()
}

// buildTrace assembles the offered trace from the stream or the
// selected generator, stamping mobile UEs over the deployment's
// population block.
func buildTrace(inPath, gen string, base pusch.ChainConfig, jobs int, rate float64, burst int, gapMs, snrMin, snrMax float64, seed uint64, pop sched.UEPopulation) ([]sched.Job, error) {
	if inPath != "" {
		r := os.Stdin
		if inPath != "-" {
			f, err := os.Open(inPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		return sched.ReadJobs(r, base)
	}
	switch gen {
	case "poisson":
		return sched.PoissonTracePop(base, jobs, rate, seed, pop), nil
	case "bursty":
		return sched.BurstyTracePop(base, jobs, burst, rate, gapMs, seed, pop), nil
	case "mix":
		return sched.MixedTracePop(sched.TableIMix(&base), jobs, rate, seed, pop), nil
	case "campaign":
		// A campaign family served as a traffic stream: the SNR sweep's
		// scenarios arrive evenly at the offered rate (non-positive and
		// NaN rates default to 1 slot/ms, like the random generators).
		if !(rate > 0) {
			rate = 1
		}
		scenarios := campaign.SNRSweep(base, snrMin, snrMax, 2)
		// Capped so the conversion stays in int64 range; FromScenarios
		// stops the trace where arrivals would pass the same bound.
		spacing := int64(min(sched.CyclesPerMs/rate, 1<<62))
		trace, skipped := sched.FromScenarios(scenarios, spacing, seed)
		if skipped > 0 {
			log.Printf("skipped %d non-chain scenarios", skipped)
		}
		// FromScenarios reproduces campaign payloads but knows nothing of
		// UEs; with -channel/-doppler set, attach the same per-UE evolving
		// link state the generators stamp.
		return sched.StampMobileAs(trace, seed, pop), nil
	default:
		return nil, fmt.Errorf("unknown generator %q (want poisson, bursty, mix or campaign)", gen)
	}
}
