// Package sched turns one-shot PUSCH slot runs into a served traffic
// stream: the streaming basestation layer over the simulator. Where the
// paper (and internal/pusch) evaluates one slot at a time and
// internal/campaign sweeps independent scenarios, sched models the
// follow-up papers' framing — the 66 Gb/s RISC-V SDR uplink cluster and
// TeraPool-SDR, where the same receive chain is continuously loaded by
// arriving slots — and reports service-level metrics: offered versus
// served Gb/s, queue-wait cycles, drops under backpressure, server
// utilization.
//
// The model is a deterministic G/D/c/K queue in simulated time. A Job
// is one slot of offered traffic (a pusch.ChainConfig plus an arrival
// cycle); Config.Servers virtual slot processors serve jobs FIFO from a
// bounded queue of Config.QueueDepth slots, and a job that arrives to a
// full queue is dropped. A slot's service time is its measured chain
// run on the cycle-approximate simulator, so the queueing behaviour is
// grounded in the same cycle counts as every other figure in the repo.
//
// Execution is two-phase so host parallelism never perturbs the
// virtual-time discipline. ServeCells is the one loop that does both;
// Scheduler.Serve is its one-class, one-cell case, and internal/fleet
// runs N cells through it:
//
//  1. Measurement: every job's chain run, once per serving class, is
//     dispatched across Config.Workers host goroutines over a sharded
//     engine machine pool (one engine.Machines shard per worker, so
//     each worker recycles one multi-MiB cluster arena per
//     configuration, contention-free). Each run is a pure function of
//     its ChainConfig and seed.
//  2. Replay: a serial event loop replays arrivals in virtual time over
//     N cells: every cell completes its work up to the arrival, a route
//     picks the admitting cell, and that cell assigns measured service
//     times to its servers, accumulates queue-wait cycles and decides
//     drops.
//
// Because admission is decided in phase 2, a dropped job's measurement
// is discarded — the price of measuring in parallel — but its payload
// still counts as offered load. Results are byte-reproducible: the same
// trace, seed and service discipline produce identical JSONL across
// runs and across worker counts.
//
// A job's timing path follows its ChainConfig.Timing: cycle-accurate
// jobs run the engine (consulting the service-time cache when one is
// configured), while analytic jobs are resolved by the calibrated
// cycle model in Config.Model — no engine run, no cache traffic — and
// their served records are stamped "timing":"analytic". Analytic jobs
// on a server without a loaded model fail at dispatch rather than
// silently falling back to the engine, and a mixed trace stamps the
// aggregate summary only when every served slot was analytic. Job
// specs carry the pin on the wire (Spec.Timing), so a trace can pin
// individual jobs back to the engine under an analytic server default.
//
// Traffic comes from generators (PoissonTrace, BurstyTrace, MixedTrace
// over the Table I use-case blends), from campaign scenarios
// (FromScenarios), or from JSONL job specs read off a stream
// (ReadJobs); cmd/puschd is the long-running server wrapping all three.
package sched
