package report

import (
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
