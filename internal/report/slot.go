package report

import (
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf8"
)

// SlotPhase is one stage's (or kernel's) contribution to a slot-level
// record: a measured pass scaled by its per-slot repetition count for
// use-case budgets, or the aggregate stage window for chain runs.
type SlotPhase struct {
	Name string `json:"name"`
	// PerPass is the wall-cycle cost of one measured pass; Passes is how
	// many times the slot repeats it. Chain stages report the aggregate
	// directly (Passes = 1).
	PerPass      int64   `json:"per_pass"`
	Passes       int     `json:"passes"`
	Cycles       int64   `json:"cycles"`
	Share        float64 `json:"share"`
	IPC          float64 `json:"ipc,omitempty"`
	MACsPerCycle float64 `json:"macs_per_cycle,omitempty"`
}

// SlotRecord is the structured result of one slot-level experiment: the
// Fig. 9c use-case budget or a functional chain run, with the
// slot-throughput metric of the SDR follow-up papers (payload bits over
// slot cycles at 1 GHz).
type SlotRecord struct {
	// Kind is "usecase" or "chain".
	Kind    string `json:"kind"`
	Cluster string `json:"cluster"`
	Cores   int    `json:"cores"`
	UEs     int    `json:"ues"`
	// Scheme is the modulation carrying the payload ("qpsk", "16qam",
	// "64qam"). Use-case records state the scheme assumed for the
	// throughput figure.
	Scheme string `json:"scheme,omitempty"`
	// CholPerRound is the use-case Cholesky schedule (0 for chain runs).
	CholPerRound int `json:"chol_per_round,omitempty"`

	Phases []SlotPhase `json:"phases"`

	TotalCycles int64   `json:"cycles"`
	TimeMs      float64 `json:"time_ms"`

	// PayloadBits is the information payload one slot carries at these
	// dimensions; ThroughputGbps is PayloadBits over the slot time at the
	// nominal 1 GHz clock.
	PayloadBits    int64   `json:"payload_bits"`
	ThroughputGbps float64 `json:"throughput_gbps"`

	// SerialCycles/Speedup are only set when the experiment also measured
	// the single-core baseline.
	SerialCycles int64   `json:"serial_cycles,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`

	// Link quality, chain runs only. SigmaEst is the chain's estimated
	// noise variance, recorded so a slot's full campaign-visible outcome
	// can be reconstructed from the record alone (the service-time cache
	// relies on this: a cached record must reproduce a cold run's result
	// byte for byte).
	BER      float64 `json:"ber,omitempty"`
	EVMdB    float64 `json:"evm_db,omitempty"`
	SigmaEst float64 `json:"sigma_est,omitempty"`

	// Channel coordinates: the fading realization a chain slot was run
	// over. Channel is the profile name ("iid", "tdl-a", ...); DopplerHz
	// the maximum Doppler shift; RicianK the linear K-factor of the
	// strongest tap; ChannelSeed the UE fading identity and ChannelTimeMs
	// the slot's position on that UE's channel time axis (two records
	// sharing a ChannelSeed saw one coherently evolving channel). All
	// omitted for legacy (iid, static) runs, whose wire bytes predate the
	// channel subsystem.
	Channel       string  `json:"channel,omitempty"`
	DopplerHz     float64 `json:"doppler_hz,omitempty"`
	RicianK       float64 `json:"rician_k,omitempty"`
	ChannelSeed   uint64  `json:"channel_seed,omitempty"`
	ChannelTimeMs float64 `json:"channel_time_ms,omitempty"`

	// Layout coordinate: how the chain's stages were mapped onto core
	// partitions ("pipe/f64/b32/d64" style splits for spatially
	// pipelined runs). Omitted for the sequential layout, whose wire
	// bytes predate the layout subsystem.
	Layout string `json:"layout,omitempty"`

	// Timing marks how the record's cycle counts were produced:
	// "analytic" for predictions of the calibrated closed-form cycle
	// model (internal/timing), omitted for cycle-accurate engine runs,
	// whose wire bytes predate the analytic mode. Stamped records are
	// model output, not measurements: the service-time cache refuses
	// them and baseline diffs distinguish them by Key.
	Timing string `json:"timing,omitempty"`
}

// appendJSON appends r's fields to the object of an enclosing
// JobRecord, each after a comma, as encoding/json inlines them.
func (r *SlotRecord) appendJSON(l *jsonLine) {
	l.str(`,"kind":`, r.Kind)
	l.str(`,"cluster":`, r.Cluster)
	l.int(`,"cores":`, int64(r.Cores))
	l.int(`,"ues":`, int64(r.UEs))
	l.optStr(`,"scheme":`, r.Scheme)
	l.optInt(`,"chol_per_round":`, int64(r.CholPerRound))
	if r.Phases == nil {
		l.b = append(l.b, `,"phases":null`...)
	} else {
		l.b = append(l.b, `,"phases":[`...)
		for i := range r.Phases {
			if i > 0 {
				l.b = append(l.b, ',')
			}
			r.Phases[i].appendJSON(l)
		}
		l.b = append(l.b, ']')
	}
	l.int(`,"cycles":`, r.TotalCycles)
	l.float(`,"time_ms":`, r.TimeMs)
	l.int(`,"payload_bits":`, r.PayloadBits)
	l.float(`,"throughput_gbps":`, r.ThroughputGbps)
	l.optInt(`,"serial_cycles":`, r.SerialCycles)
	l.optFloat(`,"speedup":`, r.Speedup)
	l.optFloat(`,"ber":`, r.BER)
	l.optFloat(`,"evm_db":`, r.EVMdB)
	l.optFloat(`,"sigma_est":`, r.SigmaEst)
	l.optStr(`,"channel":`, r.Channel)
	l.optFloat(`,"doppler_hz":`, r.DopplerHz)
	l.optFloat(`,"rician_k":`, r.RicianK)
	l.optUint(`,"channel_seed":`, r.ChannelSeed)
	l.optFloat(`,"channel_time_ms":`, r.ChannelTimeMs)
	l.optStr(`,"layout":`, r.Layout)
	l.optStr(`,"timing":`, r.Timing)
}

// appendJSON appends p as one JSON object.
func (p *SlotPhase) appendJSON(l *jsonLine) {
	l.str(`{"name":`, p.Name)
	l.int(`,"per_pass":`, p.PerPass)
	l.int(`,"passes":`, int64(p.Passes))
	l.int(`,"cycles":`, p.Cycles)
	l.float(`,"share":`, p.Share)
	l.optFloat(`,"ipc":`, p.IPC)
	l.optFloat(`,"macs_per_cycle":`, p.MACsPerCycle)
	l.b = append(l.b, '}')
}

// memoBits sets SlotMemo's size: 1<<memoBits sets of two entries,
// picked by the top memoBits bits of a record's hash.
const memoBits = 5

// SlotMemo remembers the encoded bytes of the last SlotRecords a
// JobRecord stream carried, so a record served again is copied, not
// re-encoded: traffic served from the service-time cache or the
// analytic model repeats a handful of records. It holds 64 records, in
// 32 sets of two picked by a hash of the record's numeric fields, the
// least recently used of a set's two making way for a new record; two
// ways keep a pair of repeated records that share a set from evicting
// each other. It holds its own copy of each record it remembers. The
// zero value is empty and ready to use; a SlotMemo is not safe for
// concurrent use.
type SlotMemo struct {
	sets [1 << memoBits]struct {
		ways [2]memoEntry
		mru  uint8 // the way hit or filled last
	}
}

// memoEntry is one remembered record and appendJSON's bytes for it. An
// empty body marks an empty entry (a record's body never is).
type memoEntry struct {
	rec    SlotRecord
	phases []SlotPhase // rec.Phases' backing array, kept across records
	body   []byte
}

// AppendJSON is r.AppendJSON(dst), byte for byte and accepting the same
// records, with r's SlotRecord taken from m when m remembers an equal
// one. A SlotRecord it has to encode replaces the least recently used
// entry of its set, unless the line is declined. A hit allocates
// nothing beyond growing dst.
func (m *SlotMemo) AppendJSON(dst []byte, r *JobRecord) ([]byte, bool) {
	return r.appendJSON(dst, m)
}

// appendSlot appends r's members as r.appendJSON does, copying a
// remembered body when it can.
func (m *SlotMemo) appendSlot(l *jsonLine, r *SlotRecord) {
	set := &m.sets[r.memoHash()>>(64-memoBits)]
	for w := range set.ways {
		if e := &set.ways[w]; len(e.body) > 0 && e.rec.same(r) {
			set.mru = uint8(w)
			l.b = append(l.b, e.body...)
			return
		}
	}
	start := len(l.b)
	r.appendJSON(l)
	if !l.ok {
		return
	}
	set.mru ^= 1
	e := &set.ways[set.mru]
	e.rec = *r
	if r.Phases != nil {
		e.phases = append(e.phases[:0], r.Phases...)
		if e.phases == nil {
			e.phases = []SlotPhase{} // r's phases are empty, not nil
		}
		e.rec.Phases = e.phases
	}
	e.body = append(e.body[:0], l.b[start:]...)
}

// memoHash mixes the numeric fields that tell served records apart:
// equal records (by same) hash alike, since floats enter by bit pattern.
func (r *SlotRecord) memoHash() uint64 {
	h := uint64(len(r.Phases))<<8 | uint64(len(r.Timing))
	for _, v := range [...]uint64{
		uint64(r.TotalCycles), uint64(r.PayloadBits), uint64(r.Cores), uint64(r.UEs),
		math.Float64bits(r.BER), math.Float64bits(r.SigmaEst),
		r.ChannelSeed, math.Float64bits(r.ChannelTimeMs),
	} {
		h = bits.RotateLeft64((h^v)*0x9e3779b97f4a7c15, 29)
	}
	return h * 0x9e3779b97f4a7c15
}

// same reports whether r and o encode to the same bytes because every
// field agrees: floats by bit pattern (so -0 differs from 0 and a NaN
// equals itself), and nil Phases differ from empty ones, as null from
// []. A field added to SlotRecord or SlotPhase goes here too;
// TestSlotMemoCoversEveryField fails until it does.
func (r *SlotRecord) same(o *SlotRecord) bool {
	if r.TotalCycles != o.TotalCycles || r.PayloadBits != o.PayloadBits ||
		r.Cores != o.Cores || r.UEs != o.UEs || r.CholPerRound != o.CholPerRound ||
		r.SerialCycles != o.SerialCycles || r.ChannelSeed != o.ChannelSeed ||
		!sameBits(r.TimeMs, o.TimeMs) || !sameBits(r.ThroughputGbps, o.ThroughputGbps) ||
		!sameBits(r.Speedup, o.Speedup) || !sameBits(r.BER, o.BER) ||
		!sameBits(r.EVMdB, o.EVMdB) || !sameBits(r.SigmaEst, o.SigmaEst) ||
		!sameBits(r.DopplerHz, o.DopplerHz) || !sameBits(r.RicianK, o.RicianK) ||
		!sameBits(r.ChannelTimeMs, o.ChannelTimeMs) ||
		r.Kind != o.Kind || r.Cluster != o.Cluster || r.Scheme != o.Scheme ||
		r.Channel != o.Channel || r.Layout != o.Layout || r.Timing != o.Timing ||
		(r.Phases == nil) != (o.Phases == nil) || len(r.Phases) != len(o.Phases) {
		return false
	}
	for i := range r.Phases {
		p, q := &r.Phases[i], &o.Phases[i]
		if p.Name != q.Name || p.PerPass != q.PerPass || p.Passes != q.Passes || p.Cycles != q.Cycles ||
			!sameBits(p.Share, q.Share) || !sameBits(p.IPC, q.IPC) || !sameBits(p.MACsPerCycle, q.MACsPerCycle) {
			return false
		}
	}
	return true
}

// sameBits reports whether a and b have one bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Key returns the stable identity used to match slot records across
// runs: kind, cluster (name and core count), UE count, Cholesky
// schedule, scheme, channel coordinates (profile plus, when stamped,
// the UE fading seed and channel time, so two slots of one link-curve
// or mobile trace never collide) and layout. Documents holding slot
// variants this composite cannot distinguish (e.g. an SNR sweep at
// fixed dimensions) are flagged by Diff as duplicates rather than
// silently collapsed. The service-time cache builds its coordinate key
// on top of this composite (pusch.ChainConfig.CacheKey).
func (r *SlotRecord) Key() string {
	var buf [96]byte
	return string(r.AppendKey(buf[:0]))
}

// AppendKey appends Key's bytes to dst and returns the extended buffer,
// so a caller composing a longer key (the service-time cache's) builds
// it in one buffer.
func (r *SlotRecord) AppendKey(dst []byte) []byte {
	b := append(dst, r.Kind...)
	b = appendLower(append(b, '/'), r.Cluster)
	b = strconv.AppendInt(append(b, '/'), int64(r.Cores), 10)
	b = strconv.AppendInt(append(b, "c/"...), int64(r.UEs), 10)
	b = strconv.AppendInt(append(b, "ue/chol"...), int64(r.CholPerRound), 10)
	if r.Scheme != "" {
		b = append(append(b, '/'), r.Scheme...)
	}
	if r.Channel != "" {
		b = append(append(b, '/'), r.Channel...)
		if r.ChannelSeed != 0 {
			b = strconv.AppendUint(append(b, "/cs"...), r.ChannelSeed, 16)
		}
		if r.ChannelTimeMs != 0 {
			b = strconv.AppendFloat(append(b, "/t"...), r.ChannelTimeMs, 'g', -1, 64)
		}
	}
	if r.Layout != "" {
		b = append(append(b, '/'), r.Layout...)
	}
	if r.Timing != "" {
		// An analytic prediction and a cycle-accurate measurement of the
		// same slot are different records; they must never collide in a
		// baseline diff.
		b = append(append(b, '/'), r.Timing...)
	}
	return b
}

// appendLower appends strings.ToLower(s) to dst.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return append(dst, strings.ToLower(s[i:])...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}
