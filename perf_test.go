// Host-performance benchmarks: unlike bench_test.go, which regenerates
// the paper's simulated metrics, these measure the host machine's cost
// of running the simulator — the service-time cache's cold/warm gap on
// a repeated-coordinate trace, the allocation footprint of the engine
// hot path, and the Fig. 3 table rendering. Run with
//
//	go test -bench='SchedulerTrace|MachineRun|Fig3Table' -benchmem
package repro

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
	ipusch "repro/internal/pusch"
	"repro/internal/sched"
	"repro/internal/timecache"
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
