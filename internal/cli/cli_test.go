package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/pusch"
	"repro/internal/waveform"
)

// calibration is the committed artifact, relative to this package.
const calibration = "../../testdata/calibration.json"

// resolve parses args as puschd would (MemPool, 20 dB defaults) and
// resolves them with the given -rician-k value.
func resolve(args []string, ricianK float64) (*Setup, error) {
	fs := flag.NewFlagSet("cli", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, "mempool", 20)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return f.Resolve(ricianK)
}

// flagNames are the names a resolve error may start with: the shared
// flags plus puschd's -rician-k, which Resolve takes as an argument.
var flagNames = []string{
	"cluster", "scheme", "snr", "snr-min", "snr-max", "channel", "doppler",
	"layout", "timing", "calibration", "cache", "cache-cap", "cache-file",
	"workers", "seed", "rician-k",
}

// namesFlag reports whether msg starts by naming one of flagNames.
func namesFlag(msg string) bool {
	for _, name := range flagNames {
		if rest, ok := strings.CutPrefix(msg, "-"+name); ok && (strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, ":")) {
			return true
		}
	}
	return false
}

func TestBaseSlot(t *testing.T) {
	s, err := resolve(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Base
	if b.Cluster.Name != "MemPool" || b.NSC != 256 || b.NR != 16 || b.NB != 8 || b.NL != 4 ||
		b.NSymb != 6 || b.NPilot != 2 || b.Scheme != waveform.QPSK || b.SNRdB != 20 ||
		b.Layout.Pipelined() || b.Timing != pusch.TimingCycleAccurate || !b.Channel.Legacy() || b.Seed != 0 {
		t.Errorf("default base slot %+v", b)
	}
	if s.SNRMin != 8 || s.SNRMax != 26 || s.Workers != 0 || s.Seed != 1 {
		t.Errorf("defaults: snr %g..%g, %d workers, seed %d", s.SNRMin, s.SNRMax, s.Workers, s.Seed)
	}
	if m, err := s.Model(false); m != nil || err != nil {
		t.Errorf("cycle-accurate setup loaded a model: %v, %v", m, err)
	}
	if c, err := s.Cache(); c != nil || err != nil {
		t.Errorf("setup without -cache built one: %v, %v", c, err)
	}
}

// TestResolveHostile feeds hostile values to the resolver. Each row
// either fails with an error that names its flag or is accepted with
// the bounded effect the row's check states; none may panic.
func TestResolveHostile(t *testing.T) {
	type row struct {
		args    []string
		ricianK float64
		flag    string             // the flag the error must name; "" = accepted
		check   func(*Setup) error // the accepted row's bounded effect
	}
	var rows []row
	for _, v := range []string{"NaN", "+Inf", "-Inf"} {
		for _, name := range []string{"snr", "snr-min", "snr-max", "doppler"} {
			rows = append(rows, row{args: []string{"-" + name + "=" + v}, flag: name})
		}
		x, _ := strconv.ParseFloat(v, 64)
		rows = append(rows, row{ricianK: x, flag: "rician-k"})
	}
	rows = append(rows,
		row{args: []string{"-doppler=-5"}, flag: "doppler"},
		row{ricianK: -1, flag: "rician-k"},
		row{args: []string{"-cluster", "mempool2"}, flag: "cluster"},
		row{args: []string{"-scheme", "256qam"}, flag: "scheme"},
		row{args: []string{"-channel", "tdl-d"}, flag: "channel"},
		row{args: []string{"-timing", "instant"}, flag: "timing"},
		row{args: []string{"-layout", "pipe/f9223372036854775807/b1/d1"}, flag: "layout"},
		// Accepted by the layout parser, but the FFT partition is too
		// small for one 256-point transform.
		row{args: []string{"-layout", "pipe/f8/b8/d8"}, flag: "layout"},
		row{args: []string{"-workers", strconv.Itoa(1 << 40)}, flag: "workers"},
		// timecache.New allocates nothing up front, so any capacity is
		// accepted: the cache starts empty.
		row{args: []string{"-cache-cap", strconv.Itoa(1 << 62), "-cache"}, check: emptyCache},
		row{args: []string{"-cache-cap", "-1", "-cache"}, check: emptyCache},
		// Negative worker counts mean GOMAXPROCS, as 0 does.
		row{args: []string{"-workers", "-3"}, check: func(s *Setup) error {
			return want(s.Workers == -3, "workers %d", s.Workers)
		}},
		// Names parse without regard to case.
		row{args: []string{"-cluster", "TeraPool", "-scheme", "QAM16", "-channel", "TDL-B", "-timing", "Analytic", "-layout", "PIPE"},
			check: func(s *Setup) error {
				b := s.Base
				return want(b.Cluster.Name == "TeraPool" && b.Scheme == waveform.QAM16 && b.Channel.Profile == channel.TDLB &&
					b.Timing == pusch.TimingAnalytic && b.Layout.Pipelined(), "base %+v", b)
			}},
		// -doppler alone is the iid profile in motion.
		row{args: []string{"-doppler", "30"}, check: func(s *Setup) error {
			c := s.Base.Channel
			return want(c.Profile == channel.IID && c.DopplerHz == 30 && c.RicianK == 0, "channel %+v", c)
		}},
		row{ricianK: 2, check: func(s *Setup) error {
			c := s.Base.Channel
			return want(c.Profile == channel.IID && c.RicianK == 2, "channel %+v", c)
		}},
		// A missing calibration fails only when the model is asked for,
		// with the regeneration hint.
		row{args: []string{"-timing", "analytic", "-calibration", "testdata/missing.json"}, check: func(s *Setup) error {
			_, err := s.Model(false)
			return want(err != nil && strings.HasPrefix(err.Error(), "loading calibration: ") &&
				strings.HasSuffix(err.Error(), "(regenerate with `go run ./cmd/benchgate -update-calibration`)"), "model error %v", err)
		}},
		row{args: []string{"-calibration", "testdata/missing.json"}, check: func(s *Setup) error {
			m, err := s.Model(false)
			return want(m == nil && err == nil, "cycle-accurate setup loaded %v, %v", m, err)
		}},
	)
	for _, r := range rows {
		s, err := resolve(r.args, r.ricianK)
		name := strings.Join(r.args, " ") + " rician-k=" + strconv.FormatFloat(r.ricianK, 'g', -1, 64)
		switch {
		case r.flag != "":
			if err == nil || !strings.HasPrefix(err.Error(), "-"+r.flag) || !namesFlag(err.Error()) {
				t.Errorf("%s: error %v; want one naming -%s", name, err, r.flag)
			}
		case err != nil:
			t.Errorf("%s: %v", name, err)
		default:
			if err := r.check(s); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func emptyCache(s *Setup) error {
	c, err := s.Cache()
	if err != nil {
		return err
	}
	return want(c != nil && c.Len() == 0, "cache %v", c)
}

func want(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// FuzzFlags decodes names, float bits and counts into an argv of the
// shared value flags (no path flags; -calibration is the committed
// artifact), parses it and resolves it. The result must be an error
// naming a flag or a setup whose base slot the chain accepts; nothing
// may panic. No worker starts and nothing is served.
func FuzzFlags(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), int64(0), int64(0), uint64(1), int64(64), int64(32), int64(32), "")
	f.Add(^uint64(0), math.Float64bits(26), math.Float64bits(8), math.Float64bits(26), math.Float64bits(30), math.Float64bits(2), int64(16), int64(2), uint64(7), int64(128), int64(64), int64(64), "pipe")
	f.Add(uint64(0x5555555555555555), math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), math.Float64bits(-1), math.Float64bits(-5), math.Float64bits(math.Inf(-1)), int64(-1), int64(1<<40), uint64(0), int64(9223372036854775807), int64(1), int64(1), "pipe/f8/b8/d8")
	f.Fuzz(func(t *testing.T, sel, snr, snrMin, snrMax, doppler, ricianK uint64, cacheCap, workers int64, seed uint64, fc, bc, dc int64, raw string) {
		pick := func(names ...string) string {
			s := names[sel%uint64(len(names))]
			sel /= uint64(len(names))
			return s
		}
		float := func(bits uint64) string {
			return strconv.FormatFloat(math.Float64frombits(bits), 'g', -1, 64)
		}
		layout := pick("", "seq", "pipe", "PIPELINED", "split", "raw")
		switch layout {
		case "split":
			layout = "pipe/f" + strconv.FormatInt(fc, 10) + "/b" + strconv.FormatInt(bc, 10) + "/d" + strconv.FormatInt(dc, 10)
		case "raw":
			layout = raw
		}
		flags := []struct{ name, value string }{
			{"cluster", pick("mempool", "TeraPool", "MEMPOOL", "", "mempool2")},
			{"scheme", pick("qpsk", "16QAM", "qam64", "", "bpsk")},
			{"channel", pick("", "iid", "tdl-a", "TDLB", " tdl-c ", "rayleigh")},
			{"timing", pick("", "cycle", "cycle-accurate", "ANALYTIC", "instant")},
			{"layout", layout},
			{"snr", float(snr)},
			{"snr-min", float(snrMin)},
			{"snr-max", float(snrMax)},
			{"doppler", float(doppler)},
			{"cache", pick("false", "true")},
			{"cache-cap", strconv.FormatInt(cacheCap, 10)},
			{"workers", strconv.FormatInt(workers, 10)},
			{"seed", strconv.FormatUint(seed, 10)},
		}
		argv := []string{"-calibration", calibration}
		for _, fl := range flags {
			if pick("set", "default") == "set" {
				argv = append(argv, "-"+fl.name+"="+fl.value)
			}
		}
		s, err := resolve(argv, math.Float64frombits(ricianK))
		if err != nil {
			// A value the flag package cannot parse names its flag too.
			if !namesFlag(err.Error()) && !strings.Contains(err.Error(), "for flag -") {
				t.Fatalf("%q: error %q names no flag", argv, err)
			}
			return
		}
		if _, err := s.Base.Normalized(); err != nil {
			t.Fatalf("%q: accepted, but the chain rejects the base slot: %v", argv, err)
		}
		if s.Workers > maxWorkers {
			t.Fatalf("%q: %d workers accepted above the cap of %d", argv, s.Workers, maxWorkers)
		}
		if _, err := s.Model(false); err != nil {
			t.Fatalf("%q: committed calibration: %v", argv, err)
		}
		if c, err := s.Cache(); err != nil || (c != nil && c.Len() != 0) {
			t.Fatalf("%q: cache without -cache-file: %v, %v", argv, c, err)
		}
	})
}
