// Package repro is a from-scratch Go reproduction of "Efficient
// Parallelization of 5G-PUSCH on a Scalable RISC-V Many-Core Processor"
// (Bertuletti, Zhang, Vanelli-Coralli, Benini — DATE 2023).
//
// The repository contains:
//
//   - sim: a deterministic cycle-approximate simulator of the MemPool
//     (256-core) and TeraPool (1024-core) shared-L1 RISC-V clusters,
//     including the banked-memory contention, LSU, divide/sqrt and
//     instruction-fetch models and the fork-join barrier runtime, plus
//     the slot-traffic scheduler that serves streaming slot jobs
//     through a bounded queue on pooled machines;
//   - kernels/fft, kernels/mmm: the paper's folded radix-4 FFT and
//     4x4-window matrix multiplication as public plans; these and the
//     internal kernels the chain also runs (mirrored/replicated
//     Cholesky, channel and noise estimation, per-subcarrier MIMO
//     detection) are all bit-exact against serial fixed-point golden
//     models;
//   - pusch: the Table I / Fig. 3 complexity model, the end-to-end
//     functional receive chain with layout-driven execution — the
//     sequential schedule of the paper, or spatially pipelined Layouts
//     that partition the cores among concurrent stages and overlap
//     consecutive OFDM symbols — the Fig. 9c slot-budget experiment,
//     and the campaign engine that sweeps scenario families (including
//     layout splits) in parallel on pooled simulator machines;
//   - waveform, fixedpoint: the QAM schemes and DFT beamforming weights
//     of the transmit substrate, and the packed Q1.15 sample;
//   - internal/channel (profiles re-exported via pusch): the fading
//     subsystem — 3GPP TR 38.901 TDL-A/B/C power-delay profiles,
//     Rayleigh/Rician sum-of-sinusoids tap fading with a Jakes Doppler
//     spectrum, and per-UE link state that evolves coherently across a
//     UE's slots while staying a pure function of (seed, time);
//   - cmd/complexity, cmd/kernelbench, cmd/puschsim: binaries that
//     regenerate every table and figure of the paper's evaluation,
//     emitting typed telemetry records (internal/report) as JSON;
//   - cmd/puschd: the streaming basestation service — it serves JSONL
//     or generated slot-traffic traces (Poisson, bursty, Table I
//     blends, optionally over fading channels with mobile UEs) and
//     reports offered/served Gb/s, queue-wait cycles and drops,
//     byte-reproducibly; -cells/-cell-config/-balance promote it to a
//     multi-cell fleet (internal/fleet, re-exported via sim) with
//     pluggable load balancing (round-robin, least-queue, SINR-aware)
//     and deterministic mobile-UE handover between cells;
//   - cmd/benchgate: the deterministic performance gate — a table of
//     five gates judged on cycles and bytes only: the kernel gate (a
//     fresh quick run must match testdata/baseline_kernels.json cycle
//     for cycle), the layout gate (the best pipelined layout's slot
//     throughput must stay at or above the sequential layout's on the
//     small-allocation gate slot), the cache gate (cached replay
//     byte-identical to a cold run), the calibration gate (the
//     analytic timing model's held-out error must stay under the
//     committed budget) and the fleet gate (multi-cell streams
//     byte-identical across worker counts and under the cache).
//
// Observability is deterministic too (internal/obs, its tracer
// re-exported via pusch): a virtual-time span tracer exports every
// stage window, barrier wait and handshake as Chrome trace-event JSON
// (puschsim -trace-profile), and a metrics registry exposes
// wait/sojourn histograms, queue depth over virtual time, outcome
// counters and cache/pool traffic in Prometheus text format with live
// pprof introspection (puschd -metrics). Both are off by default,
// free when off, and byte-identical across runs and worker counts
// when on; docs/OBSERVABILITY.md has the span model and metric
// catalogue.
//
// Slot timing is data-independent — a pure function of the scenario
// coordinate — which the repo exploits through three timing paths: the
// cycle-accurate engine (the default: every cycle measured), the
// service-time cache (internal/timecache: exact memoization, cached
// replay is byte-identical to a cold run), and the calibrated analytic
// model (internal/timing: closed-form per-stage prediction for novel
// coordinates, stamped "analytic" and held to a committed error
// budget). docs/TIMING.md specifies the analytic model.
//
// The cycle-accurate path itself is engineered to be cheap on the
// host without moving a simulated cycle: bulk access ops batch kernel
// load/store spans with scalar-identical timing, the bank-reservation
// table runs allocation-free epochs, and the interpreter hot path is
// flattened against hoisted cluster invariants. The bulk-access
// contract, the gates pinning cycle-exactness (property test plus
// benchgate baselines) and how host time is measured (cmd/puschbench,
// parent against change on one host, and the committed pprof profiles
// in docs/perf/) are specified in docs/ARCHITECTURE.md, "Engine
// performance model".
//
// The layer-by-layer map of the codebase — tcdm memory model up through
// engine, kernels, chain, campaign/scheduler/fleet, telemetry and the
// command-line tools — is docs/ARCHITECTURE.md.
//
// The benchmarks in bench_test.go wrap the same experiments as testing.B
// benchmarks; `go run ./cmd/kernelbench -headline` prints the measured
// speedups to set beside the paper's, and README.md has the quickstart,
// the campaign-mode walkthrough and the perf-telemetry / regression-gate
// guide.
package repro
