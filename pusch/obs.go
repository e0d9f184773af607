package pusch

import (
	"repro/internal/obs"
	"repro/internal/pusch"
)

// Observability re-exports: the deterministic span tracer from
// internal/obs. Traces are functions of simulated state only — no
// wall-clock, no goroutine identity — so they are byte-identical
// across runs and worker counts. See docs/OBSERVABILITY.md for the
// span model.
type (
	// TraceProfile collects one SlotTrace per campaign scenario (or
	// served slot) and writes the whole set as one Chrome trace-event
	// JSON document (chrome://tracing, Perfetto). Hand one to
	// Runner.Profile to trace a campaign.
	TraceProfile = obs.Profile
	// SlotTrace holds the virtual-time spans of one slot run: host
	// stages, chain stages per core partition, barriers and handshakes.
	SlotTrace = obs.Trace
)

// NewTraceProfile returns an empty, ready-to-use trace profile.
func NewTraceProfile() *TraceProfile { return obs.NewProfile() }

// RunChainTraced executes the functional receive chain like RunChain
// while recording virtual-time spans into tr: host transmit/score
// instants, per-stage (and per-symbol) kernel windows on their core
// partitions, barrier waits and producer handshakes. Tracing is
// observation-only — the returned result is byte-identical to an
// untraced run.
func RunChainTraced(cfg ChainConfig, tr *SlotTrace) (*ChainResult, error) {
	return pusch.RunChainTraced(cfg, tr)
}
