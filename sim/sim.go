// Package sim is the public face of the MemPool/TeraPool cluster
// simulator: the paper's two cluster configurations, the
// cycle-approximate timing engine with its fork-join runtime and
// measured reports, the slot-traffic scheduler and the multi-cell
// fleet.
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
	// Job is a fork-join task over a fixed core set.
	Job = engine.Job
	// Phase is one barrier-delimited section of a Job.
	Phase = engine.Phase
	// Proc is the per-core execution context handed to phase work
	// functions.
	Proc = engine.Proc
	// Report summarizes a measured window (IPC, MACs/cycle, stall
	// breakdown).
	Report = engine.Report
	// Breakdown is the Fig. 8 stall breakdown as typed fractions.
	Breakdown = report.Breakdown
)

// NewMachine builds a simulated cluster; it panics on invalid configs.
func NewMachine(cfg *Config) *Machine { return engine.NewMachine(cfg) }

// NewBreakdown computes the typed stall breakdown of a measured Report.
func NewBreakdown(r Report) Breakdown { return report.NewBreakdown(r) }
