package campaign

import (
	"errors"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// MeasureFunc measures one fully stamped slot configuration on a
// machine from the pool. The production measurement runs the real
// chain; serving tests substitute synthetic service times.
type MeasureFunc func(pool *engine.Machines, cfg pusch.ChainConfig) (report.SlotRecord, error)

// errNoModel fails an analytic slot that reaches Resolve without a
// calibration model, instead of silently running the engine.
var errNoModel = errors.New("campaign: analytic timing requested but no calibration model is loaded")

// Resolve measures one fully stamped chain configuration through the
// timing paths, in precedence order: the calibrated analytic model (for
// configurations whose Timing asks for it), the service-time cache,
// then the engine via measure (nil means the production chain run). It
// is the one resolution path of campaigns, the scheduler and the fleet,
// so every layer composes identically with the cache and the analytic
// mode.
//
// Analytic configurations resolve against the model before, and
// entirely instead of, the cache and the machine pool; their stamped
// records can never enter the cache (CacheKey refuses them, and
// timecache.Add refuses stamped records). A cache-key derivation error
// (invalid config, non-canonical layout) bypasses the cache entirely:
// invalid configs still surface as errors from the measurement itself,
// and unkeyable-but-valid ones are simply measured every time. Only a
// successful measurement is added to the cache.
func Resolve(pool *engine.Machines, cfg pusch.ChainConfig, cache *timecache.Cache, model *timing.Model, measure MeasureFunc) (report.SlotRecord, error) {
	var r resolution
	if cache != nil || cfg.Timing == pusch.TimingAnalytic {
		r.derive(&cfg, model)
	}
	return r.finish(pool, &cfg, cache, measure)
}

// resolution is what Resolve derives from a configuration alone, before
// any cache traffic or measurement: an analytic slot's prediction (or
// error), or a cycle-accurate slot's cache key ("" bypasses the cache).
type resolution struct {
	analytic bool
	rec      report.SlotRecord
	err      error
	key      string
}

// derive sets r to cfg's resolution against model. A cycle-accurate
// slot's key is derived whether or not a cache will be consulted.
func (r *resolution) derive(cfg *pusch.ChainConfig, model *timing.Model) {
	*r = resolution{analytic: cfg.Timing == pusch.TimingAnalytic}
	switch {
	case !r.analytic:
		r.key, _ = cfg.CacheKey() // an error leaves the key empty
	case model == nil:
		r.err = errNoModel
	default:
		r.rec, r.err = model.Predict(*cfg)
	}
}

// finish resolves cfg from r: an analytic slot returns its prediction;
// a keyed one is looked up in cache, and measured and added on a miss;
// an unkeyed one is measured.
func (r *resolution) finish(pool *engine.Machines, cfg *pusch.ChainConfig, cache *timecache.Cache, measure MeasureFunc) (report.SlotRecord, error) {
	if r.analytic {
		return r.rec, r.err
	}
	if r.key != "" {
		if rec, ok := cache.Lookup(r.key); ok {
			return rec, nil
		}
	}
	if measure == nil {
		measure = measureChain(nil)
	}
	rec, err := measure(pool, *cfg)
	if r.key != "" && err == nil {
		cache.Add(r.key, rec)
	}
	return rec, err
}

// measureChain returns the production measurement: one chain run on a
// machine recycled through pool, its virtual-time spans recorded into
// tr when tr is non-nil. Normalizing first rejects an invalid configuration,
// cluster included, before pool.Get can build a machine for it.
func measureChain(tr *obs.Trace) MeasureFunc {
	return func(pool *engine.Machines, cfg pusch.ChainConfig) (report.SlotRecord, error) {
		cfg, err := cfg.Normalized()
		if err != nil {
			return report.SlotRecord{}, err
		}
		m := pool.Get(cfg.Cluster)
		cr, err := pusch.RunChainTracedOn(m, cfg, tr)
		pool.Put(m)
		if err != nil {
			return report.SlotRecord{}, err
		}
		return cr.Record(cfg), nil
	}
}
