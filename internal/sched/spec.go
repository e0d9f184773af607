package sched

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/pusch"
	"repro/internal/waveform"
)

// Spec is the wire form of one slot job: one JSON object per line on a
// job stream. Zero-valued fields inherit from the server's default
// chain configuration, so a minimal stream only states arrival times:
//
//	{"arrival_cycle": 0}
//	{"arrival_cycle": 140000, "scheme": "64qam", "ues": 4}
//	{"name": "edge", "arrival_cycle": 300000, "snr_db": 8, "seed": 7}
type Spec struct {
	Name    string `json:"name,omitempty"`
	Arrival int64  `json:"arrival_cycle"`
	Cluster string `json:"cluster,omitempty"` // "mempool" or "terapool"
	NSC     int    `json:"nsc,omitempty"`
	NR      int    `json:"nr,omitempty"`
	NB      int    `json:"nb,omitempty"`
	UEs     int    `json:"ues,omitempty"`
	NSymb   int    `json:"nsymb,omitempty"`
	Scheme  string `json:"scheme,omitempty"` // "qpsk", "16qam", "64qam"
	// SNRdB is a pointer because 0 dB is a legitimate operating point:
	// absent means "inherit the server default", present-and-zero means
	// 0 dB. JobSpec always writes it, so saved traces replay faithfully.
	SNRdB *float64 `json:"snr_db,omitempty"`
	Seed  uint64   `json:"seed,omitempty"`

	// Channel coordinates (internal/channel): the fading profile, the
	// Doppler and Rician parameters, the UE fading identity and the
	// slot's position on that UE's channel time axis. Zero values
	// inherit the server default; generated mobile traces stamp all of
	// them, so a saved trace replays the exact same fading realizations.
	Channel       string  `json:"channel,omitempty"`
	DopplerHz     float64 `json:"doppler_hz,omitempty"`
	RicianK       float64 `json:"rician_k,omitempty"`
	ChannelSeed   uint64  `json:"channel_seed,omitempty"`
	ChannelTimeMs float64 `json:"channel_time_ms,omitempty"`

	// Layout is the chain's stage-to-partition mapping ("sequential",
	// "pipe" for the job cluster's stock pipelined split, or an explicit
	// "pipe/f<F>/b<B>/d<D>"). Empty inherits the server default.
	Layout string `json:"layout,omitempty"`

	// Timing selects the job's timing path: "analytic" for the
	// calibrated cycle model, "cycle-accurate" to pin the engine even
	// under an analytic server default. Empty inherits the server
	// default.
	Timing string `json:"timing,omitempty"`
}

// ParseScheme maps the wire names to waveform schemes.
func ParseScheme(name string) (waveform.Scheme, error) {
	switch strings.ToLower(name) {
	case "qpsk":
		return waveform.QPSK, nil
	case "16qam", "qam16":
		return waveform.QAM16, nil
	case "64qam", "qam64":
		return waveform.QAM64, nil
	default:
		return 0, fmt.Errorf("sched: unknown scheme %q (want qpsk, 16qam or 64qam)", name)
	}
}

// ParseChannelProfile maps the wire names to fading profiles ("" is
// the iid profile).
func ParseChannelProfile(name string) (channel.Profile, error) {
	return channel.ParseProfile(name)
}

// ParseCluster maps the wire names to cluster configurations.
func ParseCluster(name string) (*arch.Config, error) {
	switch strings.ToLower(name) {
	case "mempool":
		return arch.MemPool(), nil
	case "terapool":
		return arch.TeraPool(), nil
	default:
		return nil, fmt.Errorf("sched: unknown cluster %q (want mempool or terapool)", name)
	}
}

// maxArrival bounds a spec's arrival cycle (about 146 years at 1 GHz):
// it leaves the replay's start + service and finish - arrival
// arithmetic ample int64 headroom.
const maxArrival = 1 << 62

// Job materializes the spec over the server's defaults. Arrival cycles
// outside [0, 1<<62] are rejected.
func (sp Spec) Job(defaults pusch.ChainConfig) (Job, error) {
	if sp.Arrival < 0 || sp.Arrival > maxArrival {
		return Job{}, fmt.Errorf("sched: arrival_cycle %d outside [0, %d]", sp.Arrival, int64(maxArrival))
	}
	cfg := defaults
	if sp.Cluster != "" {
		cl, err := ParseCluster(sp.Cluster)
		if err != nil {
			return Job{}, err
		}
		cfg.Cluster = cl
	}
	if sp.NSC != 0 {
		cfg.NSC = sp.NSC
	}
	if sp.NR != 0 {
		cfg.NR = sp.NR
	}
	if sp.NB != 0 {
		cfg.NB = sp.NB
	}
	if sp.UEs != 0 {
		cfg.NL = sp.UEs
	}
	if sp.NSymb != 0 {
		cfg.NSymb = sp.NSymb
	}
	if sp.Scheme != "" {
		sc, err := ParseScheme(sp.Scheme)
		if err != nil {
			return Job{}, err
		}
		cfg.Scheme = sc
	}
	if sp.SNRdB != nil {
		cfg.SNRdB = *sp.SNRdB
	}
	if sp.Seed != 0 {
		cfg.Seed = sp.Seed
	}
	if sp.Channel != "" {
		p, err := channel.ParseProfile(sp.Channel)
		if err != nil {
			return Job{}, err
		}
		cfg.Channel.Profile = p
	}
	if sp.DopplerHz != 0 {
		cfg.Channel.DopplerHz = sp.DopplerHz
	}
	if sp.RicianK != 0 {
		cfg.Channel.RicianK = sp.RicianK
	}
	if sp.ChannelSeed != 0 {
		cfg.Channel.Seed = sp.ChannelSeed
	}
	if sp.ChannelTimeMs != 0 {
		cfg.Channel.TimeMs = sp.ChannelTimeMs
	}
	if sp.Timing != "" {
		tm, err := pusch.ParseTimingMode(sp.Timing)
		if err != nil {
			return Job{}, err
		}
		cfg.Timing = tm
	}
	if sp.Layout != "" {
		// Resolve "pipe" against the job's effective cluster (the
		// scheduler's own fallback for a nil cluster is MemPool).
		cl := cfg.Cluster
		if cl == nil {
			cl = arch.MemPool()
		}
		lay, err := pusch.ParseLayout(sp.Layout, cl)
		if err != nil {
			return Job{}, err
		}
		cfg.Layout = lay
	} else if sp.Cluster != "" && cfg.Layout.Pipelined() {
		// The inherited default layout was resolved against the server's
		// default cluster; a spec that swaps the cluster without pinning a
		// layout re-resolves the default's canonical split against its own
		// cluster so partition ids stay in range. A split the new cluster
		// cannot host (e.g. a TeraPool default served on MemPool) falls
		// back to the job cluster's stock pipelined split: the operator
		// asked for pipelined service, and the stock split is what "pipe"
		// would have resolved to there.
		if w, err := cfg.Layout.Wire(); err == nil {
			lay, err := pusch.ParseLayout(w, cfg.Cluster)
			if err != nil {
				lay = pusch.StockPipelined(cfg.Cluster)
			}
			cfg.Layout = lay
		}
	}
	return Job{Name: sp.Name, Arrival: sp.Arrival, Chain: cfg}, nil
}

// specCluster returns the wire name of a job's cluster: empty for nil
// (inherit the server default) and the stock names for value-equal
// stock configurations. Custom geometries have no wire form — emitting
// their name would either fail ParseCluster on replay or, worse,
// silently replay on different geometry — so they are an error.
func specCluster(cfg *arch.Config) (string, error) {
	switch {
	case cfg == nil:
		return "", nil
	case *cfg == *arch.MemPool():
		return "mempool", nil
	case *cfg == *arch.TeraPool():
		return "terapool", nil
	}
	return "", fmt.Errorf("sched: cluster %q is not a stock configuration; job streams can only carry mempool or terapool", cfg.Name)
}

// JobSpec is the inverse of Spec.Job: the wire form of a materialized
// job, for serializing generated traces so they can be replayed. Jobs
// on non-stock cluster geometries cannot be represented (see
// specCluster) and return an error.
func JobSpec(j Job) (Spec, error) {
	cluster, err := specCluster(j.Chain.Cluster)
	if err != nil {
		return Spec{}, err
	}
	snr := j.Chain.SNRdB
	sp := Spec{
		Name:    j.Name,
		Arrival: j.Arrival,
		Cluster: cluster,
		NSC:     j.Chain.NSC,
		NR:      j.Chain.NR,
		NB:      j.Chain.NB,
		UEs:     j.Chain.NL,
		NSymb:   j.Chain.NSymb,
		Scheme:  strings.ToLower(j.Chain.Scheme.String()),
		SNRdB:   &snr,
		Seed:    j.Chain.Seed,
	}
	if ch := j.Chain.Channel; !ch.Legacy() {
		sp.Channel = string(ch.EffectiveProfile())
		sp.DopplerHz = ch.DopplerHz
		sp.RicianK = ch.RicianK
		sp.ChannelSeed = ch.Seed
		sp.ChannelTimeMs = ch.TimeMs
	}
	if j.Chain.Layout.Pipelined() {
		w, err := j.Chain.Layout.Wire()
		if err != nil {
			return Spec{}, err
		}
		sp.Layout = w
	}
	if j.Chain.Timing != pusch.TimingCycleAccurate {
		sp.Timing = string(j.Chain.Timing)
	}
	return sp, nil
}

// ReadJobs parses a JSONL job stream, one Spec per line, zero fields
// inheriting from defaults. Blank lines and lines starting with '#' are
// skipped, so traces can carry comments.
func ReadJobs(r io.Reader, defaults pusch.ChainConfig) ([]Job, error) {
	var jobs []Job
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var sp Spec
		if err := json.Unmarshal([]byte(text), &sp); err != nil {
			return nil, fmt.Errorf("sched: job stream line %d: %w", line, err)
		}
		job, err := sp.Job(defaults)
		if err != nil {
			return nil, fmt.Errorf("sched: job stream line %d: %w", line, err)
		}
		jobs = append(jobs, job)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sched: job stream: %w", err)
	}
	return jobs, nil
}

// WriteSpecs serializes jobs as a JSONL trace, one Spec per line — the
// replayable form of a generated trace. It fails on jobs the wire
// format cannot represent faithfully (non-stock cluster geometries).
func WriteSpecs(w io.Writer, jobs []Job) error {
	enc := json.NewEncoder(w)
	for i, j := range jobs {
		sp, err := JobSpec(j)
		if err != nil {
			return fmt.Errorf("job %d (%s): %w", i, j.Name, err)
		}
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}
