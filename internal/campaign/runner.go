package campaign

import (
	"encoding/json"
	"io"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// Runner executes scenario sets concurrently on the host. Scenarios are
// fanned out across Workers goroutines by engine.FanOut; each worker
// owns one pool shard, so every worker reuses one simulator machine
// (and its multi-MiB TCDM arena) per distinct cluster configuration
// instead of reallocating per scenario. Seeding and result order depend
// only on scenario order, never on scheduling, so a campaign's output is
// byte-identical across runs and across worker counts.
type Runner struct {
	// Workers is the fan-out width; <= 0 uses GOMAXPROCS.
	Workers int
	// Seed is the campaign base seed, mixed with each scenario's index
	// into the per-scenario seed used when a chain scenario does not pin
	// its own. Zero defaults to 1.
	Seed uint64
	// Cache, when non-nil, memoizes chain service times by scenario
	// coordinate: chain scenarios consult it before drawing a machine
	// from the pool and populate it on miss. Hits replay the cold
	// result exactly (the simulator is deterministic), so the cache
	// changes wall-clock time only, never bytes. Use-case scenarios
	// and unkeyable configurations bypass it.
	Cache *timecache.Cache
	// Model resolves chain scenarios whose ChainConfig.Timing is
	// analytic: their cycle figures come from the calibrated
	// closed-form model (internal/timing) instead of the engine, and
	// the cache is bypassed in both directions. Analytic scenarios
	// without a loaded model fail per scenario. Cycle-accurate
	// scenarios never consult it.
	Model *timing.Model
	// Profile, when non-nil, collects one virtual-time span trace per
	// engine-run chain scenario, keyed by scenario index (see
	// obs.Profile). Spans carry simulated cycles only, so the profile is
	// byte-identical across Workers counts. Cache hits, analytic
	// scenarios and use-case scenarios run no engine and contribute no
	// spans.
	Profile *obs.Profile
}

// DeriveSeed derives a per-item seed from a base seed and the item's
// position, splitmix64-style: decorrelated across a sweep yet a pure
// function of (base, index). The campaign Runner uses it for scenario
// seeds and the slot-traffic scheduler for job payload seeds, so a
// campaign scenario served as a traffic job reproduces the same
// payload.
func DeriveSeed(base uint64, index int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(index+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// trace claims the profile slot for scenario i, or nil when no profile
// is attached.
func (r *Runner) trace(i int, scenarios []Scenario) *obs.Trace {
	if r.Profile == nil {
		return nil
	}
	return r.Profile.Slot(i, scenarios[i].Name)
}

// Run executes every scenario and returns the results in scenario order.
// Individual scenario failures are reported in Result.Error; Run itself
// never fails.
func (r *Runner) Run(scenarios []Scenario) []Result {
	base := r.Seed
	if base == 0 {
		base = 1
	}
	results := make([]Result, len(scenarios))
	engine.FanOut(r.Workers, len(scenarios), func(pool *engine.Machines, i int) {
		results[i] = scenarios[i].run(pool, DeriveSeed(base, i), r.Cache, r.Model, r.trace(i, scenarios))
	})
	return results
}

// WriteJSONL runs the campaign and writes one JSON object per scenario,
// one per line, in scenario order: the format the plotting scripts and
// BENCH trajectories consume. The encoding is deterministic (struct
// fields in declaration order, map keys sorted), so identical campaigns
// produce identical bytes.
func (r *Runner) WriteJSONL(w io.Writer, scenarios []Scenario) error {
	enc := json.NewEncoder(w)
	for _, res := range r.Run(scenarios) {
		if err := enc.Encode(res); err != nil {
			return err
		}
	}
	return nil
}
