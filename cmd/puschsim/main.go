// Command puschsim runs the slot-level experiments of the paper:
//
//   - the Fig. 9c use case (default): the Section II reference slot
//     (4096-point FFTs on 64 antennas, the 4096x64x32 beamforming MMM,
//     and 4096 4x4 Cholesky decompositions per data symbol) timed on
//     TeraPool, reporting the per-kernel cycle budget, the slot time at
//     1 GHz and the overall speedup versus one core;
//
//   - a functional end-to-end slot (-chain): UE transmitters, multipath
//     channel and the full receive chain on the simulator, reporting BER
//     and EVM (reduced dimensions, since the functional path keeps every
//     intermediate buffer resident);
//
//   - a scenario campaign (-campaign): a whole family of configurations
//     run concurrently on pooled simulator machines, one JSON line per
//     scenario with BER, EVM, cycles and per-stage cycle shares.
//     Campaigns are deterministic across runs and worker counts.
//
// Usage:
//
//	puschsim [-cluster terapool|mempool] [-chol-batch 4|16] [-serial] [-full-mimo] [-json]
//	puschsim -chain [-snr dB] [-channel tdl-b] [-doppler 30] [-layout pipe]
//	puschsim -chain -timing analytic            # predicted cycle budget, no engine run
//	puschsim -chain -trace-profile slot.json    # Chrome trace of the slot's virtual-time spans
//	puschsim -campaign snr      [-snr-min 8] [-snr-max 26] [-snr-step 2] [-scheme qpsk]
//	                            [-workers N] [-seed N] [-timing analytic]
//	puschsim -campaign schemes  # modulation x UE-count grid
//	puschsim -campaign clusters # cluster-size scaling sweep
//	puschsim -campaign chol     # use-case Cholesky schedule sweep
//	puschsim -campaign profiles # fading-profile sweep (iid + TDL-A/B/C)
//	puschsim -campaign link     # BER-vs-SNR link curves over TDL profiles
//	puschsim -campaign layouts  # spatial-pipelining layout sweep (per-layout Gb/s)
//	puschsim -campaign fleet    # fleet-size x balancing-policy serving sweep
//
// Flags: -cluster picks the simulated cluster for every mode;
// -chol-batch, -serial, -full-mimo and -json shape the default Fig. 9c
// mode (-json emits the typed slot record instead of tables); -chain
// and -snr select the functional slot; -channel and -doppler put chain
// and campaign runs on a fading channel (internal/channel; empty keeps
// the legacy per-slot iid draw); -layout maps the chain stages onto
// core partitions ("sequential" default, "pipe" for the cluster's
// stock spatially pipelined split, or an explicit "pipe/f64/b32/d64");
// -campaign fans a scenario family out across -workers host goroutines
// with base seed -seed, emitting one JSON line per scenario (the
// layouts campaign searches partition splits and reports each one's
// slot throughput; the fleet campaign instead serves a mobile mixed
// trace through 1/2/4-cell fleets under every balancing policy —
// internal/fleet — and emits one kind="fleet-summary" line per point,
// per-cell summaries included); -cache memoizes chain service times by scenario
// coordinate (byte-identical replay, see internal/timecache) and
// -cache-file persists the memo across runs for warm starts; -timing
// analytic replaces every chain run's engine execution with the
// calibrated closed-form cycle model (internal/timing, loaded from
// -calibration, default testdata/calibration.json) — cycles are
// predictions within the committed error budget, records are stamped
// "analytic", and BER/EVM stay zero since no payload is processed
// (docs/TIMING.md specifies the model and when to pick each path);
// -trace-profile saves the run's virtual-time spans — host stages,
// chain kernels per core partition, barrier waits — as Chrome
// trace-event JSON (open in Perfetto or chrome://tracing; one process
// per slot, one track per partition, 1 trace microsecond = 1 simulated
// cycle; see docs/OBSERVABILITY.md). Profiles are byte-identical
// across runs and -workers counts. -cpuprofile and -memprofile
// instead profile the host: they write runtime/pprof CPU and heap
// profiles of the simulator process itself (chain and campaign modes;
// inspect with `go tool pprof`), the measurement the engine hot-path
// optimizations are graded against — see docs/ARCHITECTURE.md,
// "Engine performance model". To serve slot traffic as a stream
// rather than run one experiment, see cmd/puschd.
//
// The flags shared with cmd/puschd (-cluster, -scheme, -snr, -snr-min,
// -snr-max, -channel, -doppler, -layout, -timing, -calibration, -cache,
// -cache-cap, -cache-file, -workers, -seed) live in internal/cli: names
// parse without regard to case, and a bad value stops every mode at
// start-up with an error naming the flag. -chain runs QPSK with payload
// seed 1 whatever -scheme and -seed say, campaigns run at 20 dB whatever
// -snr says, and only campaigns read -cache and -cache-file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/arch"
	"repro/internal/campaign"
	"repro/internal/channel"
	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/timecache"
	"repro/internal/timing"
	"repro/internal/waveform"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("puschsim: ")
	shared := cli.Register(flag.CommandLine, "terapool", 26)
	cholBatch := flag.Int("chol-batch", 16, "Cholesky decompositions per core between barriers (4 = paper's green schedule, 16 = red)")
	withSerial := flag.Bool("serial", false, "also measure the serial single-core baseline (slow)")
	fullMIMO := flag.Bool("full-mimo", false, "time the complete MIMO stage (Gramian+Cholesky+solves) instead of bare decompositions")
	chain := flag.Bool("chain", false, "run the functional end-to-end chain instead of the Fig. 9c budget")
	jsonOut := flag.Bool("json", false, "emit the Fig. 9c result as a typed JSON slot record instead of tables")
	campaignFlag := flag.String("campaign", "", "run a scenario campaign: snr, schemes, clusters, chol, profiles, link, layouts or fleet")
	snrStep := flag.Float64("snr-step", 2, "campaign snr: SNR increment in dB")
	traceProfile := flag.String("trace-profile", "", "write a Chrome trace-event JSON profile of the run's virtual-time spans to this file (chain and campaign modes; open in Perfetto or chrome://tracing)")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile (pprof) covering the run to this file")
	memProfile := flag.String("memprofile", "", "write a host heap profile (pprof) at exit to this file")
	flag.Parse()
	setup, err := shared.Resolve(0)
	if err != nil {
		log.Fatal(err)
	}

	// Host profiling (runtime/pprof): unlike -trace-profile, which records
	// the slot's virtual-time spans, these measure where the simulator
	// itself spends host CPU and heap — the artifacts the engine hot-path
	// work is graded against (docs/perf/). Error paths exit through
	// log.Fatal and write no profile.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}()
	}

	model, err := setup.Model(false)
	if err != nil {
		log.Fatal(err)
	}

	if *campaignFlag != "" {
		cache, err := setup.Cache()
		if err != nil {
			log.Fatal(err)
		}
		runCampaign(setup, *campaignFlag, *snrStep, model, cache, *traceProfile)
		if cache != nil {
			st := cache.Stats()
			fmt.Fprintf(os.Stderr, "puschsim: cache: %d hits / %d misses (%.1f%% hit rate, %d entries)\n",
				st.Hits, st.Misses, st.HitRate()*100, st.Entries)
			if err := setup.SaveCache(cache); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	if *chain {
		runChain(setup.Base, model, *traceProfile)
		return
	}

	if setup.Base.Timing == pusch.TimingAnalytic {
		log.Fatal("-timing analytic covers the functional chain and chain campaigns only; the Fig. 9c use case always runs cycle-accurately")
	}
	if *traceProfile != "" {
		log.Fatal("-trace-profile covers the functional chain and campaigns only; the Fig. 9c use case records no spans")
	}

	cluster := setup.Base.Cluster
	cfg := useCase(cluster)
	cfg.CholPerRound = *cholBatch
	cfg.WithSerial = *withSerial
	cfg.FullMIMO = *fullMIMO
	res, err := pusch.RunUseCase(cfg)
	if err != nil {
		// -cluster, -serial and -full-mimo pick fixed, runnable
		// configurations, so a failure here is the batch's.
		log.Fatalf("-chol-batch %d: %v", *cholBatch, err)
	}

	if *jsonOut {
		doc := report.NewDocument("puschsim")
		doc.Slots = []report.SlotRecord{res.Record(cfg)}
		if err := doc.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("Fig. 9c use case on %s (14 symbols, 64 antennas, 32 beams, 4 UEs, %d Chol/barrier)\n",
		cluster.Name, cfg.CholPerRound)
	fmt.Println()
	shares := res.Shares()
	row := func(k pusch.KernelTiming, share float64) {
		fmt.Printf("  %-14s %9d cycles/pass x %2d passes = %10d cycles  (%4.1f%%)  IPC %.2f  MACs/cyc %.1f\n",
			k.Name, k.PerPass, k.Passes, k.Total, share*100, k.IPC, k.MACsPerC)
	}
	row(res.FFT, shares["fft"])
	row(res.MMM, shares["mmm"])
	row(res.Chol, shares["chol"])
	fmt.Println()
	fmt.Printf("  total %d cycles = %.3f ms at 1 GHz (paper: 785k cycles, 0.785 ms; 5G budget 0.5 ms)\n",
		res.TotalCycles, res.TimeMs)
	fmt.Printf("  paper shares: FFT ~60-62%%, MMM ~30-31%%, Cholesky ~7-10%%\n")
	if *withSerial {
		fmt.Printf("  serial baseline %d cycles -> overall speedup %.0f (paper: 848 green / 871 red)\n",
			res.SerialCycles, res.Speedup)
	}
}

// useCase is the Fig. 9c configuration on cluster. On MemPool the
// full-scale working set exceeds the physical 1 MiB, so the banks are
// deepened (timing structure is unaffected) the way the paper's DMA
// double-buffering would stream it.
func useCase(cluster *arch.Config) pusch.UseCaseConfig {
	cfg := pusch.DefaultUseCase()
	cfg.Cluster = cluster
	if cluster.Name == "MemPool" {
		cfg.DeepBanks = 8
	}
	return cfg
}

func runCampaign(setup *cli.Setup, mode string, snrStep float64, model *timing.Model, cache *timecache.Cache, traceProfile string) {
	// Grids that do not sweep SNR run at 20 dB whatever -snr says.
	base := setup.Base
	base.SNRdB = 20
	if mode == "fleet" {
		if traceProfile != "" {
			log.Fatal("-trace-profile does not cover the fleet campaign (serve through puschd for service metrics instead)")
		}
		runFleetCampaign(base, setup.Workers, setup.Seed, cache, model)
		return
	}
	if base.Timing == pusch.TimingAnalytic && mode == "chol" {
		log.Fatal("-timing analytic covers chain campaigns only; the chol campaign runs use-case slots, which are always cycle-accurate")
	}

	var scenarios []campaign.Scenario
	switch mode {
	case "snr":
		scenarios = campaign.SNRSweep(base, setup.SNRMin, setup.SNRMax, snrStep)
	case "layouts":
		// Spatial-pipelining search: the sequential reference plus the
		// default partition-split ladder, each reporting its slot Gb/s.
		// The base layout flag is ignored — the sweep provides layouts.
		scenarios = campaign.LayoutSweep(base, nil)
	case "profiles":
		// Channel robustness: every fading profile at the base operating
		// point (use -doppler to put the UEs in motion).
		scenarios = campaign.ProfileSweep(base, channel.Profiles)
	case "link":
		// BER-versus-SNR link curves over the standardized TDL profiles
		// (-channel narrows the family to one profile).
		profiles := []channel.Profile{channel.TDLA, channel.TDLB, channel.TDLC}
		if base.Channel.Profile != "" {
			profiles = []channel.Profile{base.Channel.Profile}
		}
		scenarios = campaign.LinkCurves(base, profiles, setup.SNRMin, setup.SNRMax, snrStep)
	case "schemes":
		scenarios = campaign.SchemeGrid(base,
			[]waveform.Scheme{waveform.QPSK, waveform.QAM16, waveform.QAM64},
			[]int{1, 2, 4})
	case "clusters":
		// Scale the selected cluster's tile geometry from 1 to 8 groups
		// (64..512 cores for MemPool, 128..1024 for TeraPool); the
		// workload stays fixed.
		scenarios = campaign.ClusterScaling(base, []int{1, 2, 4, 8})
	case "chol":
		scenarios = campaign.CholScheduleSweep(useCase(base.Cluster), []int{1, 2, 4, 8, 16})
	default:
		log.Fatalf("unknown campaign %q (want snr, schemes, clusters, chol, profiles, link, layouts or fleet)", mode)
	}

	if len(scenarios) == 0 {
		log.Fatalf("campaign %q is empty (check -snr-min/-snr-max/-snr-step)", mode)
	}
	runner := &campaign.Runner{Workers: setup.Workers, Seed: setup.Seed, Cache: cache, Model: model}
	if traceProfile != "" {
		// Cached, analytic and use-case scenarios contribute no spans;
		// every engine-run chain scenario gets one trace slot. The
		// profile bytes are identical across runs and -workers counts.
		runner.Profile = obs.NewProfile()
	}
	if err := runner.WriteJSONL(os.Stdout, scenarios); err != nil {
		log.Fatal(err)
	}
	if runner.Profile != nil {
		writeProfile(traceProfile, runner.Profile)
	}
}

// writeProfile saves the collected spans as one Chrome trace-event JSON
// document, viewable in Perfetto or chrome://tracing.
func writeProfile(path string, prof *obs.Profile) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := prof.WriteChrome(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "puschsim: trace profile: %d spans -> %s\n", prof.SpanCount(), path)
}

// runFleetCampaign sweeps fleet size x balancing policy over one
// mobile mixed trace per size (larger fleets draw from larger UE
// populations), emitting one kind="fleet-summary" JSON line per point.
// Pool/host figures are stripped so lines stay byte-deterministic
// across runs and worker counts.
func runFleetCampaign(base pusch.ChainConfig, workers int, seed uint64, cache *timecache.Cache, model *timing.Model) {
	if base.Channel.Legacy() {
		// Handover and SINR-aware routing need mobile UEs: default to
		// TDL-B at 30 Hz Doppler when no -channel is given.
		base = sched.Mobile(base, channel.TDLB, 30, 0)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, cells := range []int{1, 2, 4} {
		jobs := fleet.MixedTrace(cells, sched.TableIMix(&base), 24, 2, seed)
		for _, policy := range fleet.Policies() {
			f := &fleet.Fleet{Cfg: fleet.Config{
				Cells:   fleet.Homogeneous(cells, fleet.Cell{Servers: 2}),
				Policy:  policy,
				Workers: workers,
				Seed:    seed,
				Cache:   cache,
				Model:   model,
			}}
			_, sum := f.Serve(jobs)
			sum.Pool, sum.Host = nil, nil
			if err := enc.Encode(&sum); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// runChain runs the base slot in QPSK with payload seed 1, whatever
// -scheme and -seed say.
func runChain(cfg pusch.ChainConfig, model *timing.Model, traceProfile string) {
	cfg.Scheme = waveform.QPSK
	cfg.Seed = 1
	if cfg.Timing == pusch.TimingAnalytic {
		if traceProfile != "" {
			log.Fatal("-trace-profile needs an engine run; -timing analytic predicts cycles without one")
		}
		// The analytic path predicts timing only: no payload runs, so
		// there is no BER/EVM to report — just the predicted cycle budget.
		rec, err := model.Predict(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("analytic slot timing on %s, %s layout: %d cycles (%.3f ms at 1 GHz), %.3f Gb/s\n",
			cfg.Cluster.Name, cfg.Layout, rec.TotalCycles, rec.TimeMs, rec.ThroughputGbps)
		for _, ph := range rec.Phases {
			fmt.Printf("  %-46s %8d cycles (predicted)\n", ph.Name, ph.Cycles)
		}
		return
	}
	var res *pusch.ChainResult
	var err error
	if traceProfile != "" {
		prof := obs.NewProfile()
		res, err = pusch.RunChainTraced(cfg, prof.Slot(0, "chain"))
		if err != nil {
			log.Fatal(err)
		}
		writeProfile(traceProfile, prof)
	} else {
		res, err = pusch.RunChain(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	ch := "iid (legacy)"
	if !cfg.Channel.Legacy() {
		ch = fmt.Sprintf("%s at %g Hz Doppler", cfg.Channel.EffectiveProfile(), cfg.Channel.DopplerHz)
	}
	fmt.Printf("functional slot on %s, %s channel, %s layout, %.0f dB SNR: BER %.2e, EVM %.1f dB, sigma^2 %.2e\n",
		cfg.Cluster.Name, ch, cfg.Layout, cfg.SNRdB, res.BER, res.EVMdB, res.SigmaEst)
	fmt.Printf("%d cycles (%.3f ms at 1 GHz)\n", res.TotalCycles, res.TimeMs)
	kind := "cycles"
	if cfg.Layout.Pipelined() {
		kind = "cycles of partition occupancy"
	}
	for _, st := range pusch.Stages {
		rep := res.Stages[st]
		fmt.Printf("  %-46s %8d %s\n", st, rep.Wall, kind)
	}
}
