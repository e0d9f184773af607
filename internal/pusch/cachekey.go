package pusch

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/report"
)

// CacheKeySchema versions the coordinate-key layout of CacheKey. It is
// the first token of every key, so a persisted service-time cache
// written under an older derivation can never serve an entry to a
// newer one: a stale key simply misses and the slot is re-simulated —
// wrong timing is impossible by construction. Bump it whenever the key
// stops capturing a coordinate that affects timing or payload.
const CacheKeySchema = "tc1"

// CacheKey returns the full scenario coordinate of one chain run: the
// deterministic identity under which the service-time cache
// (internal/timecache) memoizes the run's SlotRecord. Because the
// simulator is bit-reproducible, the record is a pure function of this
// coordinate, so a cache hit is exact — byte-identical to re-running
// the chain.
//
// The key builds on report.SlotRecord.Key (kind, cluster, UEs, scheme,
// channel profile + fading seed + channel time, layout) and extends it
// with every remaining ChainConfig coordinate the record key cannot
// see: the air-interface dimensions, SNR, amplitudes, tap count,
// payload seed, interpolation flag, the Doppler/Rician/delay-spread
// channel parameters, and a fingerprint of the full cluster geometry
// (so custom scaled clusters sharing a stock name never collide).
//
// Configurations without a replayable coordinate — invalid ones, or
// hand-built non-canonical layouts — return an error; callers bypass
// the cache for them and measure directly.
func (c ChainConfig) CacheKey() (string, error) {
	// The coordinate of the normalized configuration, the one the chain
	// measurement (campaign.Resolve's default) actually runs, so keyed
	// and measured configurations agree.
	c, err := c.Normalized()
	if err != nil {
		return "", err
	}
	if c.Timing == TimingAnalytic {
		// Analytic records are model predictions, not measurements; giving
		// them no coordinate keeps them out of the service-time cache by
		// construction (timecache additionally rejects stamped records).
		return "", fmt.Errorf("pusch: cache key: analytic-timing slots are never cached")
	}
	layout := ""
	if c.Layout.Pipelined() {
		w, err := c.Layout.Wire()
		if err != nil {
			return "", fmt.Errorf("pusch: cache key: %w", err)
		}
		layout = w
	}
	skel := report.SlotRecord{
		Kind:    "chain",
		Cluster: c.Cluster.Name,
		Cores:   c.Cluster.NumCores(),
		UEs:     c.NL,
		Scheme:  strings.ToLower(c.Scheme.String()),
		Layout:  layout,
	}
	ch := c.Channel
	ch.SetDefaults()
	if !c.Channel.Legacy() {
		skel.Channel = string(ch.Profile)
		skel.ChannelSeed = ch.Seed
		skel.ChannelTimeMs = ch.TimeMs
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var sb strings.Builder
	sb.WriteString(CacheKeySchema)
	sb.WriteByte('|')
	sb.WriteString(skel.Key())
	fmt.Fprintf(&sb, "|nsc%d/nr%d/nb%d/sy%d/pi%d", c.NSC, c.NR, c.NB, c.NSymb, c.NPilot)
	sb.WriteString("|snr" + f(c.SNRdB))
	sb.WriteString("|amp" + f(c.DataAmp) + ":" + f(c.PilotAmp))
	fmt.Fprintf(&sb, "|taps%d|seed%x", c.Taps, c.Seed)
	if c.InterpolateChannel {
		sb.WriteString("|interp")
	}
	if !c.Channel.Legacy() {
		// Doppler, Rician K and delay spread shape the fading realization
		// beyond what the record key carries.
		sb.WriteString("|fd" + f(ch.DopplerHz) + "/k" + f(ch.RicianK) + "/ds" + f(ch.DelaySpreadNs))
	}
	sb.WriteString("|arch" + ArchFingerprint(c.Cluster))
	return sb.String(), nil
}

// ArchFingerprint hashes the complete cluster description — geometry,
// latencies, wake costs, I$ and FU parameters — so two clusters that
// time differently can never share cache entries, whatever their names
// say. The analytic timing calibration (internal/timing) keys its
// per-cluster coefficients by the same fingerprint, so a calibration
// fitted on one geometry can never be evaluated on another.
func ArchFingerprint(cfg *arch.Config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *cfg)
	return strconv.FormatUint(h.Sum64(), 16)
}
