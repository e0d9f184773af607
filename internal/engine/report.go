package engine

import "fmt"

// Mark is a snapshot of machine state used to measure a window of
// execution: take one before running a workload, then build a Report
// with ReportSince.
type Mark struct {
	time  []int64
	stats []Stats
}

// Mark snapshots the current per-core clocks and counters.
func (m *Machine) Mark() Mark {
	mk := Mark{
		time:  append([]int64(nil), m.coreTime...),
		stats: append([]Stats(nil), m.coreStats...),
	}
	return mk
}

// Report summarizes one measured window for a set of cores: wall cycles,
// instruction and stall totals, and the derived metrics the paper plots
// (IPC, MACs/cycle, stall fractions).
type Report struct {
	Name  string
	Cores int   // cores participating in the workload
	Wall  int64 // wall-clock cycles of the window (max end - min start)
	Stats Stats // summed over participating cores
}

// ReportSince measures the window between mark and now over the given
// cores (nil means every core in the cluster).
func (m *Machine) ReportSince(mark Mark, name string, cores []int) Report {
	if cores == nil {
		cores = m.allCores
	}
	var start, end int64
	start = int64(1)<<62 - 1
	var s Stats
	for _, c := range cores {
		if mark.time[c] < start {
			start = mark.time[c]
		}
		if m.coreTime[c] > end {
			end = m.coreTime[c]
		}
		s.Add(m.coreStats[c].Sub(mark.stats[c]))
	}
	if end < start {
		end = start
	}
	return Report{Name: name, Cores: len(cores), Wall: end - start, Stats: s}
}

// WindowSince returns the absolute window of one measured section over
// the given cores (nil means every core): the earliest marked core time
// and the latest current core time. ReportSince reports the same window
// as a width; span tracing needs the endpoints.
func (m *Machine) WindowSince(mark Mark, cores []int) (start, end int64) {
	if cores == nil {
		cores = m.allCores
	}
	start = int64(1)<<62 - 1
	for _, c := range cores {
		if mark.time[c] < start {
			start = mark.time[c]
		}
		if m.coreTime[c] > end {
			end = m.coreTime[c]
		}
	}
	if end < start {
		end = start
	}
	return start, end
}

// IPC returns instructions per cycle per participating core, the metric
// of Fig. 8.
func (r Report) IPC() float64 {
	den := float64(r.Wall) * float64(r.Cores)
	if den == 0 {
		return 0
	}
	return float64(r.Stats.Instrs) / den
}

// MACsPerCycle returns complex MACs retired per wall cycle across the
// whole machine (paper: 145 MACs/cycle for the 256x128x256 MMM on
// MemPool).
func (r Report) MACsPerCycle() float64 {
	if r.Wall == 0 {
		return 0
	}
	return float64(r.Stats.MACs) / float64(r.Wall)
}

// Fraction returns the share of the attributed core-cycles spent in the
// given bucket extractor (instructions or one stall class).
func (r Report) Fraction(bucket func(Stats) int64) float64 {
	total := float64(r.Stats.Busy())
	if total == 0 {
		return 0
	}
	return float64(bucket(r.Stats)) / total
}

// StallBreakdown returns the Fig. 8 style fractions, in the order:
// instructions, RAW, LSU, WFI, external-unit, instruction-cache.
func (r Report) StallBreakdown() map[string]float64 {
	return map[string]float64{
		"instr":  r.Fraction(func(s Stats) int64 { return s.Instrs }),
		"raw":    r.Fraction(func(s Stats) int64 { return s.RawStalls }),
		"lsu":    r.Fraction(func(s Stats) int64 { return s.LsuStalls }),
		"wfi":    r.Fraction(func(s Stats) int64 { return s.WfiStalls }),
		"ext":    r.Fraction(func(s Stats) int64 { return s.ExtStalls }),
		"icache": r.Fraction(func(s Stats) int64 { return s.ICacheStalls }),
	}
}

// MemStallFraction returns the share of cycles lost to memory-related
// stalls (LSU), the quantity the paper claims stays under 10% for the
// optimized kernels.
func (r Report) MemStallFraction() float64 {
	return r.Fraction(func(s Stats) int64 { return s.LsuStalls })
}

// Speedup returns serial.Wall / r.Wall, the Fig. 9 metric.
func Speedup(serial, parallel Report) float64 {
	if parallel.Wall == 0 {
		return 0
	}
	return float64(serial.Wall) / float64(parallel.Wall)
}

// Utilization is speedup normalized by core count, matching the paper's
// utilization figures (e.g. 0.89 for MMM on MemPool).
func Utilization(serial, parallel Report) float64 {
	if parallel.Cores == 0 {
		return 0
	}
	return Speedup(serial, parallel) / float64(parallel.Cores)
}

// String renders a single-line summary.
func (r Report) String() string {
	return fmt.Sprintf("%s: %d cores, %d cycles, %d instrs, IPC %.2f, MACs/cycle %.1f",
		r.Name, r.Cores, r.Wall, r.Stats.Instrs, r.IPC(), r.MACsPerCycle())
}

// The stall-breakdown string rendering lives in internal/report
// (report.NewBreakdown(r).String()), alongside the rest of the typed
// telemetry records.
