// Package mmm re-exports the 4x4-window matrix-matrix multiplication
// kernel (Section V-B of the paper).
package mmm

import (
	"repro/internal/engine"
	"repro/internal/kernels/mmm"
)

type (
	// Plan schedules one matrix product.
	Plan = mmm.Plan
	// Options tune window shape, scaling and the conflict-avoidance
	// stagger.
	Options = mmm.Options
)

// NewPlan allocates an m-by-n times n-by-p product on the given cores.
func NewPlan(mach *engine.Machine, m, n, p, cores int, opt Options) (*Plan, error) {
	return mmm.NewPlan(mach, m, n, p, cores, opt)
}
