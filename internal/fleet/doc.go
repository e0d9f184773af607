// Package fleet promotes the single-cell slot-traffic scheduler
// (internal/sched) to an N-cell basestation deployment: every cell
// owns its cluster geometry, stage layout, timing mode and bounded
// G/D/c/K queue, and one shared arrival process is routed across the
// cells by a pluggable load-balancing policy (round-robin,
// least-queue, SINR-aware).
//
// Determinism is the package contract, inherited from sched's
// two-phase serving loop, which runs every cell of the fleet:
//
//   - Phase 1 measures every job under every distinct cell serving
//     class (cluster fingerprint × layout × timing mode) across the
//     sharded machine pool — in parallel, any worker count, through
//     the service-time cache and the analytic model exactly like a
//     standalone scheduler. A homogeneous fleet collapses to one
//     class, so serving N identical cells costs one measurement pass.
//   - Phase 2 routes and admits the whole trace in a single serial
//     virtual-time replay: at each arrival every cell's completions
//     are drained, the policy picks a cell from the deterministic
//     replay state, and the job enters that cell's queue. Routing
//     never reads host state, so the JSONL stream is byte-identical
//     across measurement worker counts, cache hits, and runs.
//
// Mobile UEs migrate between cells deterministically: a UE's serving
// cell under the SINR-aware policy follows CellGainDB, a pure function
// of (UE fading seed, cell index, channel time), and the UE's channel
// time rides in the job itself (stamped by the sched generators), so
// its fading process continues coherently across the handover. The
// fleet owns only what is fleet-specific — serving classes, per-cell
// disciplines, the policy's route, the fleet summary and metrics — and
// serves through sched.ServeCells, the scheduler's own loop, so a
// single-cell fleet is byte-identical to the plain scheduler on the
// same trace (TestSingleCellFleetMatchesScheduler pins it).
package fleet
