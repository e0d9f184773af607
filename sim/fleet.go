package sim

import "repro/internal/fleet"

// Multi-cell fleet re-exports: the sharded serving layer that routes a
// shared arrival stream across N cells (each with its own cluster
// geometry, chain layout, timing path and queue discipline) under a
// pluggable load-balancing policy, with deterministic mobile-UE
// handover. See internal/fleet for the serving model and cmd/puschd
// (-cells/-cell-config/-balance) for the server binary.
type (
	// FleetCell is one cell's serving identity: cluster, layout, timing
	// path, server count and queue depth. Zero fields inherit from the
	// job (cluster/layout/timing) or the defaults (servers/queue).
	FleetCell = fleet.Cell
	// FleetConfig is the deployment: cells, balancing policy,
	// measurement workers, base seed, optional service-time cache and
	// calibrated timing model.
	FleetConfig = fleet.Config
	// Fleet serves job traces across its cells deterministically.
	Fleet = fleet.Fleet
	// BalancePolicy names a load-balancing policy ("round-robin",
	// "least-queue", "sinr").
	BalancePolicy = fleet.Policy
)

// BalancePolicies lists every policy in stable order.
func BalancePolicies() []BalancePolicy {
	return fleet.Policies()
}

// HomogeneousFleet returns n copies of the default cell, named
// cell-0..cell-n-1.
func HomogeneousFleet(n int, def FleetCell) []FleetCell {
	return fleet.Homogeneous(n, def)
}

// FleetMixedTrace draws jobs slot jobs from a weighted configuration
// mix for an n-cell fleet.
func FleetMixedTrace(n int, mix []MixEntry, jobs int, ratePerMs float64, seed uint64) []SlotJob {
	return fleet.MixedTrace(n, mix, jobs, ratePerMs, seed)
}
