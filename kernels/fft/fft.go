// Package fft re-exports the parallel radix-4 folded FFT kernel
// (Section V-A of the paper) and its interleaved-layout ablation.
package fft

import (
	"repro/internal/engine"
	"repro/internal/kernels/fft"
)

type (
	// Plan schedules a set of independent FFTs on one machine.
	Plan = fft.Plan
	// Layout selects folded (optimized) or interleaved (ablation)
	// placement.
	Layout = fft.Layout
)

// Data placements.
const (
	Folded      = fft.Folded
	Interleaved = fft.Interleaved
)

// NewPlan allocates count independent n-point FFTs, batch per lane set.
func NewPlan(m *engine.Machine, n, count, batch int, lay Layout) (*Plan, error) {
	return fft.NewPlan(m, n, count, batch, lay)
}
