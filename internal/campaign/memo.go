package campaign

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// memoBits sets Memo's size: 1<<memoBits sets of two entries, picked by
// the top memoBits bits of a configuration's hash.
const memoBits = 4

// Memo is Resolve for a stream of configurations that repeats a few
// coordinates, as warm serving traffic does. It remembers what
// resolution derives from a configuration alone: a cycle-accurate
// slot's cache key (or that it has none), and an analytic slot's
// prediction (or error) together with the model that made it. A
// configuration equal to a remembered one skips normalization, key
// formatting, the cluster fingerprint and the model. Everything else
// runs as in Resolve: every keyed slot is looked up in the cache, and
// measured and added on a miss, so the cache's counters, its LRU order
// and every record are Resolve's.
//
// It holds 32 configurations in 16 sets of two, picked by a hash of the
// numeric fields, so a lookup compares at most two. A configuration is
// remembered when it misses its set again while it is still one of the
// set's last two misses: each set keeps the hashes of the last two
// configurations that missed it, and a match makes the configuration
// replace the least recently used of the set's two. So two
// configurations that alternate in one set are both kept, while traffic
// that never repeats a configuration, such as a fading trace whose
// channel time moves every slot, writes no entry and pays a hash per
// lookup. Configurations are equal when every field is: floats by bit
// pattern (so -0 and +0 differ), the cluster by value (an equal
// arch.Config behind another pointer is equal) and each layout
// partition element by element (so a nil and an empty CoreSet, which
// resolution reads alike, are equal). A Memo keeps its own copy of the
// cluster and the partitions. An analytic record served from it shares
// its Phases with every other, as cache hits do. The zero value is
// empty and ready to use; a Memo is not safe for concurrent use.
type Memo struct {
	sets [1 << memoBits]struct {
		ways [2]memoEntry
		mru  uint8     // the way hit or filled last
		seen [2]uint64 // the hashes of the last two configurations that missed, newest first
	}
	spare resolution // the last resolution the memo did not keep
}

// memoEntry is one remembered configuration and its resolution.
type memoEntry struct {
	cfg     pusch.ChainConfig // Cluster and the Layout sets point into the entry
	cluster arch.Config
	model   *timing.Model
	res     resolution
	full    bool
}

// Resolve is Resolve(pool, *cfg, cache, model, measure), byte for byte
// and with the same cache traffic, taking what cfg derives from the
// memo when it holds an equal configuration resolved against model.
// cfg is read, never kept. A hit that the cache or the model serves
// allocates nothing.
func (m *Memo) Resolve(pool *engine.Machines, cfg *pusch.ChainConfig, cache *timecache.Cache, model *timing.Model, measure MeasureFunc) (report.SlotRecord, error) {
	if cache == nil && cfg.Timing != pusch.TimingAnalytic {
		var r resolution // nothing to derive: the slot is measured
		return r.finish(pool, cfg, nil, measure)
	}
	return m.lookup(cfg, model).finish(pool, cfg, cache, measure)
}

// lookup returns the resolution of cfg against model: the memo's own
// when it holds it, and otherwise derived now and remembered if cfg is
// one of its set's last two misses, too.
func (m *Memo) lookup(cfg *pusch.ChainConfig, model *timing.Model) *resolution {
	h := configHash(cfg)
	set := &m.sets[h>>(64-memoBits)]
	for w := range set.ways {
		if e := &set.ways[w]; e.full && e.model == model && sameConfig(&e.cfg, cfg) {
			set.mru = uint8(w)
			return &e.res
		}
	}
	if h != set.seen[0] && h != set.seen[1] {
		set.seen = [2]uint64{h, set.seen[0]}
		m.spare.derive(cfg, model)
		return &m.spare
	}
	set.mru ^= 1
	e := &set.ways[set.mru]
	e.store(cfg, model)
	e.res.derive(cfg, model)
	return &e.res
}

// store makes the entry a copy of cfg resolved against model, reusing
// the entry's partition arrays.
func (e *memoEntry) store(cfg *pusch.ChainConfig, model *timing.Model) {
	l := e.cfg.Layout
	e.cfg = *cfg
	if cfg.Cluster != nil {
		e.cluster = *cfg.Cluster
		e.cfg.Cluster = &e.cluster
	}
	e.cfg.Layout = pusch.Layout{
		FFT:  append(l.FFT[:0], cfg.Layout.FFT...),
		BF:   append(l.BF[:0], cfg.Layout.BF...),
		CHE:  append(l.CHE[:0], cfg.Layout.CHE...),
		NE:   append(l.NE[:0], cfg.Layout.NE...),
		MIMO: append(l.MIMO[:0], cfg.Layout.MIMO...),
	}
	e.model, e.full = model, true
}

// configHash mixes the fields that tell a serve's configurations apart:
// equal configurations (by sameConfig) hash alike, since floats enter
// by bit pattern and the cluster and partitions by their sizes.
func configHash(c *pusch.ChainConfig) uint64 {
	cores := 0
	if c.Cluster != nil {
		cores = c.Cluster.NumCores()
	}
	h := uint64(len(c.Timing))<<8 | uint64(len(c.Channel.Profile))
	for _, v := range [...]uint64{
		c.Seed, math.Float64bits(c.Channel.TimeMs), c.Channel.Seed, math.Float64bits(c.SNRdB),
		uint64(c.NSC) | uint64(c.NR)<<16 | uint64(c.NB)<<32 | uint64(c.NL)<<48,
		uint64(c.Scheme) | uint64(c.NSymb)<<8 | uint64(cores)<<16 | uint64(len(c.Layout.FFT)+len(c.Layout.BF))<<40,
	} {
		h = bits.RotateLeft64((h^v)*0x9e3779b97f4a7c15, 29)
	}
	return h * 0x9e3779b97f4a7c15
}

// sameConfig reports whether a and b resolve alike because every field
// agrees, as Memo describes. A field added to pusch.ChainConfig,
// channel.Spec, pusch.Layout or arch.Config goes here too;
// TestResolveMemoCoversEveryField fails until it does.
func sameConfig(a, b *pusch.ChainConfig) bool {
	// The fields traffic varies most come first, so a miss ends early.
	return a.Seed == b.Seed && sameChannel(&a.Channel, &b.Channel) &&
		a.NL == b.NL && a.Scheme == b.Scheme && a.Timing == b.Timing &&
		sameBits(a.SNRdB, b.SNRdB) && a.NSC == b.NSC && a.NR == b.NR && a.NB == b.NB &&
		a.NSymb == b.NSymb && a.NPilot == b.NPilot && a.Taps == b.Taps &&
		a.InterpolateChannel == b.InterpolateChannel &&
		sameBits(a.DataAmp, b.DataAmp) && sameBits(a.PilotAmp, b.PilotAmp) &&
		(a.Cluster == nil) == (b.Cluster == nil) && (a.Cluster == nil || *a.Cluster == *b.Cluster) &&
		slices.Equal(a.Layout.FFT, b.Layout.FFT) && slices.Equal(a.Layout.BF, b.Layout.BF) &&
		slices.Equal(a.Layout.CHE, b.Layout.CHE) && slices.Equal(a.Layout.NE, b.Layout.NE) &&
		slices.Equal(a.Layout.MIMO, b.Layout.MIMO)
}

// sameChannel is sameConfig for the channel spec.
func sameChannel(a, b *channel.Spec) bool {
	return sameBits(a.TimeMs, b.TimeMs) && a.Seed == b.Seed && a.Profile == b.Profile &&
		sameBits(a.DopplerHz, b.DopplerHz) && sameBits(a.RicianK, b.RicianK) &&
		sameBits(a.DelaySpreadNs, b.DelaySpreadNs)
}

// sameBits reports whether a and b have one bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
