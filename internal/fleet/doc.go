// Package fleet promotes the single-cell slot-traffic scheduler
// (internal/sched) to an N-cell basestation deployment: every cell
// owns its cluster geometry, stage layout, timing mode and bounded
// G/D/c/K queue, and one shared arrival process is routed across the
// cells by a pluggable load-balancing policy (round-robin,
// least-queue, SINR-aware).
//
// Determinism is the package contract, inherited from sched's serving
// loop, which runs every cell of the fleet in two phases over fixed
// windows of arrival-order positions, measuring one window ahead of
// the one it replays:
//
//   - Measurement resolves every job of the window under every distinct
//     cell serving class (cluster fingerprint × layout × timing mode)
//     across the sharded machine pool — in parallel, any worker count,
//     through the service-time cache and the analytic model exactly
//     like a standalone scheduler. A homogeneous fleet collapses to one
//     class, so serving N identical cells costs one measurement pass.
//   - Replay routes and admits the window's arrivals in the serial
//     virtual-time replay that runs through the whole trace: at each
//     arrival every cell's completions are drained, the policy picks a
//     cell from the deterministic replay state, and the job enters that
//     cell's queue. Routing never reads host state, so the JSONL stream
//     is byte-identical across measurement worker counts, cache hits,
//     and runs.
//
// Each job's result is emitted in arrival order once it and every
// earlier job are final; the record line, the per-cell and fleet
// summaries, the handover count and the metric families fold it then.
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
