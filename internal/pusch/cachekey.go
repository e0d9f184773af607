package pusch

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"

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
	var name [32]byte
	layout := ""
	if c.Layout.Pipelined() {
		w, ok := c.Layout.appendSplit(name[:0])
		if !ok {
			_, err := c.Layout.Wire()
			return "", fmt.Errorf("pusch: cache key: %w", err)
		}
		layout = string(w) // stays on the stack with skel
	}
	skel := report.SlotRecord{
		Kind:    "chain",
		Cluster: c.Cluster.Name,
		Cores:   c.Cluster.NumCores(),
		UEs:     c.NL,
		Scheme:  c.Scheme.Name(),
		Layout:  layout,
	}
	ch := c.Channel
	ch.SetDefaults()
	if !c.Channel.Legacy() {
		skel.Channel = string(ch.Profile)
		skel.ChannelSeed = ch.Seed
		skel.ChannelTimeMs = ch.TimeMs
	}
	var buf [256]byte
	b := append(buf[:0], CacheKeySchema+"|"...)
	b = skel.AppendKey(b)
	b = appendInt(b, "|nsc", c.NSC)
	b = appendInt(b, "/nr", c.NR)
	b = appendInt(b, "/nb", c.NB)
	b = appendInt(b, "/sy", c.NSymb)
	b = appendInt(b, "/pi", c.NPilot)
	b = appendFloat(b, "|snr", c.SNRdB)
	b = appendFloat(b, "|amp", c.DataAmp)
	b = appendFloat(b, ":", c.PilotAmp)
	b = appendInt(b, "|taps", c.Taps)
	b = strconv.AppendUint(append(b, "|seed"...), c.Seed, 16)
	if c.InterpolateChannel {
		b = append(b, "|interp"...)
	}
	if !c.Channel.Legacy() {
		// Doppler, Rician K and delay spread shape the fading realization
		// beyond what the record key carries.
		b = appendFloat(b, "|fd", ch.DopplerHz)
		b = appendFloat(b, "/k", ch.RicianK)
		b = appendFloat(b, "/ds", ch.DelaySpreadNs)
	}
	b = append(b, "|arch"...)
	b = append(b, ArchFingerprint(c.Cluster)...)
	return string(b), nil
}

// appendInt appends tag and v in decimal.
func appendInt(b []byte, tag string, v int) []byte {
	return strconv.AppendInt(append(b, tag...), int64(v), 10)
}

// appendFloat appends tag and v in its shortest exact decimal form.
func appendFloat(b []byte, tag string, v float64) []byte {
	return strconv.AppendFloat(append(b, tag...), v, 'g', -1, 64)
}

// ArchFingerprint hashes the complete cluster description — geometry,
// latencies, wake costs, I$ and FU parameters — so two clusters that
// time differently can never share cache entries, whatever their names
// say. The analytic timing calibration (internal/timing) keys its
// per-cluster coefficients by the same fingerprint, so a calibration
// fitted on one geometry can never be evaluated on another. Results
// are memoized by configuration value, so a mutated copy is a new key
// and never reads a stale fingerprint.
func ArchFingerprint(cfg *arch.Config) string {
	fingerprints.RLock()
	fp, ok := fingerprints.m[*cfg]
	fingerprints.RUnlock()
	if ok {
		return fp
	}
	fp = archFingerprint(cfg)
	fingerprints.Lock()
	fingerprints.m[*cfg] = fp
	fingerprints.Unlock()
	return fp
}

// fingerprints memoizes ArchFingerprint: a process times only a few
// cluster configurations, and rendering one through fmt's reflection
// costs more than the rest of a cache key or an analytic prediction.
var fingerprints = struct {
	sync.RWMutex
	m map[arch.Config]string
}{m: make(map[arch.Config]string)}

// archFingerprint is ArchFingerprint without the memo: the fnv64a hash
// of the configuration's %+v rendering, the bytes persisted cache keys
// and the committed calibration were derived from.
func archFingerprint(cfg *arch.Config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *cfg)
	return strconv.FormatUint(h.Sum64(), 16)
}
