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
// Execution splits into two phases so host parallelism never perturbs
// the virtual-time discipline: measure a window, replay it. ServeCells
// is the one loop that does both; Scheduler.Serve is its one-class,
// one-cell case, and internal/fleet runs N cells through it. It walks
// the arrival order in fixed windows of 1024 positions (the window
// constant), never host timing, and for each window:
//
//  1. Measurement: every job of the window, once per serving class, is
//     resolved as campaign.Resolve resolves it, fanned out across
//     Config.Workers host goroutines over a sharded engine machine pool
//     built once per serve (one engine.Machines shard per worker, so
//     each worker recycles one multi-MiB cluster arena per
//     configuration, contention-free, across every window). Each result
//     is a pure function of its ChainConfig and seed; a job that pins
//     no seed gets one derived from Config.Seed and its arrival-order
//     position in the whole trace. A worker copies a job's ChainConfig
//     once, into its own copy, which the class and the seed stamp in
//     place, and resolves it through its own campaign.Memo, kept
//     across the windows and touched by no other goroutine: 32
//     configurations in 16 two-way sets, keyed by every field of the
//     configuration as resolved (floats by bit pattern, the cluster by
//     value). A configuration it holds skips normalization, key
//     formatting, the cluster fingerprint and the analytic model; its
//     cycle-accurate jobs still go through the cache, so the cache
//     counters and every byte stay campaign.Resolve's. Warm traffic
//     repeats a few coordinates, so nearly every job hits; a trace
//     whose payload seeds or channel times differ per job never does.
//  2. Replay: a serial event loop replays the window's arrivals in
//     virtual time over N cells: every cell completes its work up to
//     the arrival, a route picks the admitting cell, and that cell
//     assigns measured service times to its servers, accumulates
//     queue-wait cycles and decides drops. A queued job keeps its
//     measured record with its pending result, so it may start in a
//     later window.
//
// The phases overlap one window deep: once window k is measured, a
// helper goroutine measures window k+1 over the same pool while the
// caller replays and emits window k, then the two swap measurement
// buffers. A measurement depends only on its job and a route reads only
// the window being replayed, so the lookahead moves no byte. A trace of
// at most one window starts no helper.
//
// Results leave the loop in arrival order: a job's result is emitted
// once it and every earlier job are final (started, dropped or failed),
// and the JSONL line, the summaries and the metric families fold it as
// it is emitted. So the first record waits for one window, not the
// trace, and a serve holds, beyond the caller's trace and its arrival
// order, two windows of measurements per serving class (the one
// replaying and the one measured ahead), the queued jobs, the results
// from the oldest queued job to the newest arrival, and 16 bytes per
// served job for exact wait and latency percentiles. A write error ends
// the serve: the window measured ahead hands out no further
// measurement, the ones already running finish, and the serve returns
// only after they have, so nothing is measured after it returns.
//
// Because admission is decided in the replay, a dropped job's
// measurement is discarded — the price of measuring in parallel — but
// its payload still counts as offered load. Results are
// byte-reproducible: the same trace, seed and service discipline
// produce identical JSONL, across runs and across worker counts.
// Encoder writes that JSONL: each served line through
// report.JobRecord.AppendJSON, without reflection, with the bytes of a
// slot record the stream carried recently copied from its
// report.SlotMemo, and through encoding/json whatever AppendJSON
// declines, so the bytes are encoding/json's either way.
//
// A job's timing path follows its ChainConfig.Timing, decided by
// campaign.Resolve, the resolution path campaigns share: cycle-accurate
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
