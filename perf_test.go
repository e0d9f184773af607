// Host-performance benchmarks: unlike bench_test.go, which regenerates
// the paper's simulated metrics, these measure the host machine's cost
// of running the simulator — the service-time cache's cold/warm gap on
// a repeated-coordinate trace, warm and fading multi-window fleet
// streams, the allocation footprint of the engine hot path, a slot
// replayed whole beside the same slot's golden arithmetic, and the
// Fig. 3 table rendering. Run with
//
//	go test -bench='SchedulerTrace|FleetWarmStream|FleetFadingStream|MachineRun|ChainReplayedSlot|PhySlotArithmetic|Fig3Table' -benchmem
package repro

import (
	"io"
	"math/rand/v2"
	"testing"

	"repro/internal/arch"
	"repro/internal/campaign"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/fleet"
	"repro/internal/phy"
	ipusch "repro/internal/pusch"
	"repro/internal/sched"
	"repro/internal/timecache"
	"repro/internal/timing"
	"repro/internal/waveform"
)

// benchTrace is the repeated-coordinate mixed trace both scheduler
// benchmarks serve: the Table I blend over a small slot with a pinned
// payload seed, so only the mix's three distinct coordinates recur.
func benchTrace(jobs int) []sched.Job {
	base := ipusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 6, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
	return sched.MixedTrace(sched.TableIMix(&base), jobs, 2, 1)
}

// BenchmarkSchedulerTraceCold serves the mixed trace with no cache:
// every slot pays full cycle-accurate simulation.
func BenchmarkSchedulerTraceCold(b *testing.B) {
	trace := benchTrace(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &sched.Scheduler{Cfg: sched.Config{Servers: 2, Seed: 1}}
		_, sum := s.Serve(trace)
		if sum.Served == 0 {
			b.Fatal("no jobs served")
		}
	}
}

// BenchmarkSchedulerTraceWarm serves the same trace through a
// pre-warmed service-time cache: every slot is a hit, so the gap to
// Cold is the win the cache buys on repeated coordinates.
func BenchmarkSchedulerTraceWarm(b *testing.B) {
	trace := benchTrace(16)
	cache := timecache.New(0)
	warm := &sched.Scheduler{Cfg: sched.Config{Servers: 2, Seed: 1, Cache: cache}}
	warm.Serve(trace)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &sched.Scheduler{Cfg: sched.Config{Servers: 2, Seed: 1, Cache: cache}}
		_, sum := s.Serve(trace)
		if sum.Host == nil || sum.Host.CacheMisses != 0 {
			b.Fatal("warm pass missed the cache")
		}
	}
}

// BenchmarkFleetWarmStream streams a warm fleet serve: cmd/puschbench's
// replay-long shape cut to four 1024-job windows. A Table I mix at 200
// slots/ms over a 3-cell UE population, its payload seed pinned; odd
// jobs take the analytic model, even jobs hit a service-time cache
// warmed outside the timer, so no job runs the engine. Three
// homogeneous MemPool cells of 2 servers route least-queue, measured
// by 2 workers, and WriteJSONL encodes every line to io.Discard. What
// it times is the serving loop: resolution, replay, routing and JSON
// encoding, with measurement overlapping the replay. Its 4096 jobs
// repeat 6 coordinates, so each worker's resolution memo misses only
// on its first two jobs of each (about 24 of 4096 lookups with 2
// workers), and
// their lines carry 6 distinct slot records, so the encoder's record
// memo hits too.
func BenchmarkFleetWarmStream(b *testing.B) {
	base := ipusch.ChainConfig{NSC: 256, NR: 16, NB: 8, NL: 4, NSymb: 6, NPilot: 2, SNRdB: 20}
	mix := sched.TableIMix(&base)
	trace := streamTrace(mix, func(i int) bool { return i%2 == 1 })
	cache := timecache.New(0)
	pool := engine.NewMachines()
	for _, e := range mix {
		cfg := e.Chain
		cfg.Cluster, cfg.Seed = arch.MemPool(), 1
		if _, err := campaign.Resolve(pool, cfg, cache, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	benchFleetStream(b, trace, cache)
}

// BenchmarkFleetFadingStream is BenchmarkFleetWarmStream's serve with
// every job analytic and the Table I mix on mobile UEs: TDL-B at 30 Hz,
// each UE with its own fading seed and each slot stamped with its
// arrival time on the UE's channel. No two of its jobs' coordinates or
// records are equal, so every lookup in the workers' resolution memos
// and in the encoder's record memo misses: it prices both memos for
// traffic that never repeats.
func BenchmarkFleetFadingStream(b *testing.B) {
	base := sched.Mobile(ipusch.ChainConfig{NSC: 256, NR: 16, NB: 8, NL: 4, NSymb: 6, NPilot: 2, SNRdB: 20}, channel.TDLB, 30, 0)
	trace := streamTrace(sched.TableIMix(&base), func(int) bool { return true })
	benchFleetStream(b, trace, nil)
}

// Both fleet stream benchmarks serve streamJobs jobs on streamCells
// cells.
const streamJobs, streamCells = 4 * 1024, 3

// streamTrace draws the fleet stream benchmarks' trace from mix: 200
// slots/ms over the cells' UE population, payload seed pinned to 1, and
// the jobs analytic picks on the analytic timing path.
func streamTrace(mix []sched.MixEntry, analytic func(i int) bool) []sched.Job {
	trace := sched.MixedTracePop(mix, streamJobs, 200, 1, fleet.Population(streamCells))
	for i := range trace {
		c := &trace[i].Chain
		c.Seed = 1
		if analytic(i) {
			c.Timing = ipusch.TimingAnalytic
		}
	}
	return trace
}

// benchFleetStream times WriteJSONL of trace to io.Discard on
// streamCells homogeneous MemPool cells of 2 servers, least-queue, 2
// measurement workers, the committed calibration and cache (nil for
// none), and fails if a job fails or misses the cache.
func benchFleetStream(b *testing.B, trace []sched.Job, cache *timecache.Cache) {
	model, err := timing.Load(timing.DefaultPath)
	if err != nil {
		b.Fatal(err)
	}
	f := &fleet.Fleet{Cfg: fleet.Config{
		Cells:   fleet.Homogeneous(streamCells, fleet.Cell{Cluster: arch.MemPool(), Servers: 2}),
		Policy:  fleet.LeastQueue,
		Workers: 2,
		Cache:   cache,
		Model:   model,
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := f.WriteJSONL(io.Discard, trace)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Served+sum.Dropped != len(trace) || sum.Failed != 0 || sum.Host.CacheMisses != 0 {
			b.Fatalf("served %d, dropped %d, failed %d of %d jobs with %d cache misses", sum.Served, sum.Dropped, sum.Failed, len(trace), sum.Host.CacheMisses)
		}
	}
	b.ReportMetric(float64(b.N*len(trace))/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkMachineRun measures the host cost of one cycle-accurate
// 64-SC MemPool slot — benchgate's layout-gate configuration — on a
// reused machine: the number the engine optimizations are graded on
// while they are written (cmd/puschbench's slot-mempool64 workload
// times the same slot end to end).
func BenchmarkMachineRun(b *testing.B) {
	cfg := ipusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 14, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
	m := engine.NewMachine(cfg.Cluster)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, err := ipusch.RunChainRecordOn(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainReplayedSlot measures the host cost of a slot that
// replays whole: one repeated MemPool coordinate on a Reset machine
// that already holds the coordinate's memo, as a pooled serving machine
// does. The sequential case is a 256-SC, 6-symbol slot whose 19 stages
// replay; the pipelined case is the 64-SC, 14-symbol StockPipelined
// slot of cmd/puschbench's slot-mempool64, whose 17 Runs replay as one
// slot. Every Run then executes untimed, so what remains is TX, the
// kernels' data path and scoring.
func BenchmarkChainReplayedSlot(b *testing.B) {
	seq := ipusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     256, NR: 16, NB: 8, NL: 4,
		NSymb: 6, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
	pipe := seq
	pipe.NSC, pipe.NSymb = 64, 14
	pipe.Layout = ipusch.StockPipelined(pipe.Cluster)
	for _, c := range []struct {
		name string
		cfg  ipusch.ChainConfig
	}{{"seq-256sc-6sym", seq}, {"pipe-64sc-14sym", pipe}} {
		b.Run(c.name, func(b *testing.B) {
			m := engine.NewMachine(c.cfg.Cluster)
			slot := func() {
				m.Reset()
				if _, err := ipusch.RunChainRecordOn(m, c.cfg); err != nil {
					b.Fatal(err)
				}
			}
			slot() // records the memo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot()
			}
		})
	}
}

// BenchmarkPhySlotArithmetic is the golden floor under
// BenchmarkChainReplayedSlot's seq-256sc-6sym case: that slot's
// arithmetic composed serially from internal/phy, the reference the
// kernels match bit for bit. It runs 96 FFTs of 256 points (6 symbols ×
// 16 antennas), six 256×16×8 beamforming MatMuls (one per symbol) and
// 1024 4-UE MIMO solves (4 data symbols × 256 subcarriers), each a
// Gramian, a Cholesky, a matched filter and two triangular solves. Its
// inputs are drawn once, outside the timer. What the replayed slot costs
// above this is the engine's untimed data path plus TX, planning and
// scoring.
func BenchmarkPhySlotArithmetic(b *testing.B) {
	const nsc, nr, nb, nl, nsymb, npilot = 256, 16, 8, 4, 6, 2
	rng := rand.New(rand.NewPCG(1, 2))
	draw := func(n int) []fixed.C15 {
		x := make([]fixed.C15, n)
		for i := range x {
			x[i] = fixed.Pack(int16(rng.IntN(1<<13)-1<<12), int16(rng.IntN(1<<13)-1<<12))
		}
		return x
	}
	tw := phy.Twiddles(nsc)
	antennas := make([][]fixed.C15, nsymb*nr)
	for i := range antennas {
		antennas[i] = draw(nsc)
	}
	beams := draw(nr * nb)
	grids := make([][]fixed.C15, nsymb)
	for i := range grids {
		grids[i] = draw(nsc * nr)
	}
	channels := make([][]fixed.C15, nsc)
	for i := range channels {
		channels[i] = draw(nb * nl)
	}
	received := make([][]fixed.C15, (nsymb-npilot)*nsc)
	for i := range received {
		received[i] = draw(nb)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range antennas {
			physink = phy.FFT(x, tw)
		}
		for _, g := range grids {
			physink = phy.MatMul(g, beams, nsc, nr, nb, 4)
		}
		for k, y := range received {
			h := channels[k%nsc]
			l := phy.Cholesky(phy.Gramian(h, nb, nl, 3, 1<<10), nl)
			z := phy.MatVecConjT(h, y, nb, nl, 3)
			physink = phy.BackSubHermitian(l, phy.ForwardSub(l, z, nl), nl)
		}
	}
}

// physink keeps BenchmarkPhySlotArithmetic's results live.
var physink []fixed.C15

// BenchmarkMachineRunAllocs pins the per-job allocation footprint of
// the engine hot path: Machine.Run on a multi-phase fork-join job,
// with the cluster barrier retiring reservations between iterations.
// The per-Machine scratch buffers keep the steady state at zero
// allocations per run.
func BenchmarkMachineRunAllocs(b *testing.B) {
	m := engine.NewMachine(arch.MemPool())
	cores := make([]int, 16)
	for i := range cores {
		cores[i] = i
	}
	work := func(p *engine.Proc) { p.Tick(64) }
	job := engine.Job{
		Name:  "bench",
		Cores: cores,
		Phases: []engine.Phase{
			{Name: "a", Kernel: "bench/k", Work: work},
			{Name: "b", Kernel: "bench/k", Work: work},
			{Name: "c", Kernel: "bench/k", Work: work},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(job); err != nil {
			b.Fatal(err)
		}
		m.ClusterBarrier()
	}
}

// BenchmarkMachineRunTraced is BenchmarkMachineRunAllocs with the
// engine tracer attached: the gap between the two is the cost of span
// recording, paid only when tracing is requested (the untraced hot path
// stays at zero allocations — see TestUntracedRunAllocsNothing in
// internal/engine).
func BenchmarkMachineRunTraced(b *testing.B) {
	m := engine.NewMachine(arch.MemPool())
	m.Tracer = &engine.Tracer{}
	cores := make([]int, 16)
	for i := range cores {
		cores[i] = i
	}
	work := func(p *engine.Proc) { p.Tick(64) }
	job := engine.Job{
		Name:  "bench",
		Cores: cores,
		Phases: []engine.Phase{
			{Name: "a", Kernel: "bench/k", Work: work},
			{Name: "b", Kernel: "bench/k", Work: work},
			{Name: "c", Kernel: "bench/k", Work: work},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tracer.Events = m.Tracer.Events[:0]
		if err := m.Run(job); err != nil {
			b.Fatal(err)
		}
		m.ClusterBarrier()
	}
}

// BenchmarkFig3Table pins the complexity-table rendering: one Shares()
// per UE-count column, not one per stage x column cell.
func BenchmarkFig3Table(b *testing.B) {
	nls := []int{1, 2, 4, 8, 16, 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := ipusch.Fig3Table(nls); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}
