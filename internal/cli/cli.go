// Package cli is the configuration surface cmd/puschsim and cmd/puschd
// share: Register defines the fifteen flags both take, and Resolve turns
// them into one validated Setup. Names parse without regard to case, and
// every bad value is an error that names its flag, before anything runs.
package cli

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/channel"
	"repro/internal/pusch"
	"repro/internal/sched"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// maxWorkers caps -workers. Each worker owns a machine arena, and a cold
// serve builds one arena per worker, up to one per measurement of a
// 1024-job window, so more workers only add arenas.
const maxWorkers = 1024

// Flags holds the shared flags' values between parsing and Resolve.
type Flags struct {
	cluster, scheme, channel, layout, timing string
	calibration, cacheFile                   string
	snr, snrMin, snrMax, doppler             float64
	cache                                    bool
	cacheCap, workers                        int
	seed                                     uint64
}

// Register defines the shared flags on fs. cluster and snrDB are the
// defaults of -cluster and -snr, the two in which the binaries differ.
func Register(fs *flag.FlagSet, cluster string, snrDB float64) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cluster, "cluster", cluster, "simulated cluster: mempool or terapool")
	fs.StringVar(&f.scheme, "scheme", "qpsk", "base modulation: qpsk, 16qam or 64qam")
	fs.Float64Var(&f.snr, "snr", snrDB, "base SNR in dB")
	fs.Float64Var(&f.snrMin, "snr-min", 8, "SNR sweep: first point in dB")
	fs.Float64Var(&f.snrMax, "snr-max", 26, "SNR sweep: last point in dB")
	fs.StringVar(&f.channel, "channel", "", "fading profile: iid, tdl-a, tdl-b or tdl-c (empty = legacy per-slot iid draw)")
	fs.Float64Var(&f.doppler, "doppler", 0, "maximum Doppler shift in Hz (UE mobility; 0 = static fading)")
	fs.StringVar(&f.layout, "layout", "", "chain-stage core layout: sequential (default), pipe, or pipe/f<F>/b<B>/d<D>")
	fs.StringVar(&f.timing, "timing", "", "timing path: cycle-accurate (default) or analytic (calibrated closed-form model, no engine run)")
	fs.StringVar(&f.calibration, "calibration", timing.DefaultPath, "calibration artifact for -timing analytic")
	fs.BoolVar(&f.cache, "cache", false, "memoize slot service times by scenario coordinate (exact: cached replay is byte-identical)")
	fs.IntVar(&f.cacheCap, "cache-cap", 0, "service-time cache capacity in entries (0 = default)")
	fs.StringVar(&f.cacheFile, "cache-file", "", "warm-start the service-time cache from this JSONL file and save it back after the run (implies -cache)")
	fs.IntVar(&f.workers, "workers", 0, "host measurement goroutines (0 = GOMAXPROCS, at most 1024); never affects results")
	fs.Uint64Var(&f.seed, "seed", 1, "base seed")
	return f
}

// Setup is the validated configuration the shared flags describe. The
// calibration model and the service-time cache are built only when a
// mode asks for them.
type Setup struct {
	// Base is the slot both binaries sweep or serve around: 256
	// subcarriers, 16 antennas, 8 beams, 4 UEs and 6 symbols with 2
	// pilots (the functional path keeps every intermediate buffer
	// resident, bounding the subcarriers).
	Base           pusch.ChainConfig
	SNRMin, SNRMax float64
	Workers        int
	Seed           uint64
	f              *Flags
}

// Resolve validates the parsed flags and builds the Setup. ricianK is
// puschd's -rician-k (puschsim passes 0); with -channel and -doppler it
// puts the base slot on a fading channel.
func (f *Flags) Resolve(ricianK float64) (*Setup, error) {
	for _, v := range []struct {
		name   string
		v      float64
		nonNeg bool
	}{{"snr", f.snr, false}, {"snr-min", f.snrMin, false}, {"snr-max", f.snrMax, false}, {"doppler", f.doppler, true}, {"rician-k", ricianK, true}} {
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return nil, fmt.Errorf("-%s %g is not a finite number", v.name, v.v)
		}
		if v.nonNeg && v.v < 0 {
			return nil, fmt.Errorf("-%s %g is negative", v.name, v.v)
		}
	}
	if f.workers > maxWorkers {
		return nil, fmt.Errorf("-workers %d exceeds the cap of %d", f.workers, maxWorkers)
	}
	cluster, err := sched.ParseCluster(f.cluster)
	if err != nil {
		return nil, fmt.Errorf("-cluster: %w", err)
	}
	scheme, err := sched.ParseScheme(f.scheme)
	if err != nil {
		return nil, fmt.Errorf("-scheme: %w", err)
	}
	mode, err := pusch.ParseTimingMode(f.timing)
	if err != nil {
		return nil, fmt.Errorf("-timing: %w", err)
	}
	layout, err := pusch.ParseLayout(f.layout, cluster)
	if err != nil {
		return nil, fmt.Errorf("-layout: %w", err)
	}
	base := pusch.ChainConfig{
		Cluster: cluster,
		NSC:     256, NR: 16, NB: 8, NL: 4,
		NSymb: 6, NPilot: 2,
		Scheme: scheme,
		SNRdB:  f.snr,
		Layout: layout,
		Timing: mode,
	}
	// Any fading parameter puts the slot on a fading channel (an empty
	// -channel is the iid profile); none keeps the legacy per-slot draw.
	if f.channel != "" || f.doppler != 0 || ricianK != 0 {
		profile, err := channel.ParseProfile(f.channel)
		if err != nil {
			return nil, fmt.Errorf("-channel: %w", err)
		}
		base.Channel = channel.Spec{Profile: profile, DopplerHz: f.doppler, RicianK: ricianK}
	}
	// Every other field is checked above, so the chain's own validation
	// can only reject the layout (an FFT partition too small for one
	// 256-point transform).
	if _, err := base.Normalized(); err != nil {
		return nil, fmt.Errorf("-layout: %w", err)
	}
	return &Setup{Base: base, SNRMin: f.snrMin, SNRMax: f.snrMax, Workers: f.workers, Seed: f.seed, f: f}, nil
}

// Model loads the -calibration artifact when the base slot's timing is
// analytic or need is set, and returns nil otherwise.
func (s *Setup) Model(need bool) (*timing.Model, error) {
	if !need && s.Base.Timing != pusch.TimingAnalytic {
		return nil, nil
	}
	m, err := timing.Load(s.f.calibration)
	if err != nil {
		return nil, fmt.Errorf("loading calibration: %v (regenerate with `go run ./cmd/benchgate -update-calibration`)", err)
	}
	return m, nil
}

// Cache returns the service-time cache -cache or -cache-file asks for,
// warm-started from -cache-file when it names one, or nil. A warm start
// that loads or rejects entries says so on the standard logger.
func (s *Setup) Cache() (*timecache.Cache, error) {
	if !s.f.cache && s.f.cacheFile == "" {
		return nil, nil
	}
	c := timecache.New(s.f.cacheCap)
	if s.f.cacheFile != "" {
		added, rejected, err := c.LoadFile(s.f.cacheFile)
		if err != nil {
			return nil, fmt.Errorf("-cache-file: %w", err)
		}
		if added > 0 || rejected > 0 {
			log.Printf("cache warm-start: %d entries loaded, %d rejected from %s", added, rejected, s.f.cacheFile)
		}
	}
	return c, nil
}

// SaveCache writes c back to -cache-file when one is named.
func (s *Setup) SaveCache(c *timecache.Cache) error {
	if c == nil || s.f.cacheFile == "" {
		return nil
	}
	if err := c.SaveFile(s.f.cacheFile); err != nil {
		return fmt.Errorf("-cache-file: %w", err)
	}
	return nil
}
