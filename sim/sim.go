// Package sim is the public face of the MemPool/TeraPool cluster
// simulator: cluster configurations, the cycle-approximate timing engine
// with its fork-join runtime, and the measurement/reporting types used
// throughout the benchmarks.
//
// Quick start:
//
//	m := sim.NewMachine(sim.TeraPool())
//	mark := m.Mark()
//	err := m.Run(sim.Job{
//		Name:  "hello",
//		Cores: []int{0, 1, 2, 3},
//		Phases: []sim.Phase{{Name: "work", Work: func(p *sim.Proc) {
//			p.Tick(100)
//		}}},
//	})
//	rep := m.ReportSince(mark, "hello", nil)
package sim

import (
	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/report"
)

// Cluster architecture description types.
type (
	// Config describes one cluster instance (hierarchy, latencies,
	// synchronization costs).
	Config = arch.Config
	// Addr is a word address in the cluster's shared L1.
	Addr = arch.Addr
	// Level classifies memory-access distance (local/group/remote).
	Level = arch.Level
	// Latencies is the per-level interconnect latency table.
	Latencies = arch.Latencies
	// WakeCosts prices the wake-up-CSR triggers used by barriers.
	WakeCosts = arch.WakeCosts
	// Place is the physical (group, tile, bank, row) home of a word.
	Place = arch.Place
)

// Memory access levels.
const (
	LevelLocal  = arch.LevelLocal
	LevelGroup  = arch.LevelGroup
	LevelRemote = arch.LevelRemote
)

// MemPool returns the 256-core cluster configuration of the paper.
func MemPool() *Config { return arch.MemPool() }

// TeraPool returns the 1024-core cluster configuration of the paper.
func TeraPool() *Config { return arch.TeraPool() }

// Engine types.
type (
	// Machine is one simulated cluster. Machine.Reset returns it to the
	// just-constructed state for reuse across independent runs.
	Machine = engine.Machine
	// Machines is a concurrency-safe pool of reusable Machine instances
	// keyed by cluster configuration, for sweeps that run many
	// experiments without reallocating the multi-MiB L1 arena each time.
	Machines = engine.Machines
	// Sharded is a pool of machine pools, one independently locked
	// shard per concurrent worker, with aggregate occupancy stats.
	Sharded = engine.Sharded
	// Job is a fork-join task over a fixed core set.
	Job = engine.Job
	// Phase is one barrier-delimited section of a Job.
	Phase = engine.Phase
	// Proc is the per-core execution context handed to phase work
	// functions.
	Proc = engine.Proc
	// W is a timestamped 32-bit register value.
	W = engine.W
	// A is a timestamped widening accumulator.
	A = engine.A
	// Stats holds per-core instruction and stall counters.
	Stats = engine.Stats
	// Report summarizes a measured window (IPC, MACs/cycle, stall
	// breakdown).
	Report = engine.Report
	// Window is the typed telemetry record of a measured window, ready
	// for JSON emission (see NewWindow).
	Window = report.Window
	// Breakdown is the Fig. 8 stall breakdown as typed fractions.
	Breakdown = report.Breakdown
	// Mark snapshots machine state for ReportSince.
	Mark = engine.Mark
)

// NewMachine builds a simulated cluster; it panics on invalid configs.
func NewMachine(cfg *Config) *Machine { return engine.NewMachine(cfg) }

// NewMachines returns an empty reusable-machine pool.
func NewMachines() *Machines { return engine.NewMachines() }

// NewSharded returns a machine pool with n independently locked shards.
func NewSharded(n int) *Sharded { return engine.NewSharded(n) }

// NewWindow converts a measured Report into its typed, serializable
// telemetry record (cycles, instructions, IPC, stall breakdown).
func NewWindow(r Report) Window { return report.NewWindow(r) }

// NewBreakdown computes the typed stall breakdown of a measured Report.
func NewBreakdown(r Report) Breakdown { return report.NewBreakdown(r) }

// Speedup returns serial.Wall / parallel.Wall.
func Speedup(serial, parallel Report) float64 { return engine.Speedup(serial, parallel) }

// Utilization is Speedup normalized by the parallel core count.
func Utilization(serial, parallel Report) float64 { return engine.Utilization(serial, parallel) }
