package pusch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// serialChainRecord composes the chain's public stages one after the
// other on m, as RunChainOn did before its transmit side ran beside
// planning and the engine: NewSlotTX, NewPipeline, RunSymbol for every
// symbol, Drain and ScoreSlot. It is the reference the overlapped chain
// must match byte for byte.
func serialChainRecord(t *testing.T, m *engine.Machine, cfg ChainConfig) []byte {
	t.Helper()
	cfg, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewSlotTX(&cfg, rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range cfg.NSymb {
		if err := pl.RunSymbol(s, tx.RxTime[s]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Drain(); err != nil {
		t.Fatal(err)
	}
	lm, err := ScoreSlot(&cfg, tx, pl.Detected())
	if err != nil {
		t.Fatal(err)
	}
	res := ChainResult{
		BER:         lm.BER,
		EVMdB:       lm.EVMdB,
		SigmaEst:    pl.Sigma(),
		TotalCycles: pl.Cycles(),
		TimeMs:      float64(pl.Cycles()) / 1e6,
		Stages:      pl.Stages(),
	}
	js, err := json.Marshal(res.Record(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// checkGoroutines fails t unless the goroutine count falls back to at
// most base. It yields, without sleeping, for up to ten seconds while
// goroutines that have finished their work exit; a leaked one never
// does.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for end := time.Now().Add(10 * time.Second); n > base && time.Now().Before(end); n = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	if n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, %d before the slots:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestChainOverlapMatchesStages holds RunChainRecordOn, whose transmit
// side runs on a helper goroutine, to the serial composition of the
// chain's stages, record byte for byte, on fresh machines and on Reset
// ones that replay the slot from the memo.
func TestChainOverlapMatchesStages(t *testing.T) {
	seq := traceTestConfig()
	seq.NSymb = 14
	pipe := seq
	pipe.Layout = StockPipelined(pipe.Cluster)
	tdl := seq
	tdl.Channel = channel.Spec{Profile: channel.TDLB, DopplerHz: 30, Seed: 5, TimeMs: 2}
	rows := []struct {
		name   string
		cfg    ChainConfig
		traced bool
	}{
		{"sequential", seq, false},
		{"StockPipelined", pipe, false},
		{"TDL-B 30 Hz", tdl, false},
		{"sequential traced", seq, true},
		{"StockPipelined traced", pipe, true},
	}
	base := runtime.NumGoroutine()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			over := engine.NewMachine(row.cfg.Cluster)
			serial := engine.NewMachine(row.cfg.Cluster)
			for i, state := range []string{"fresh", "Reset"} {
				if i > 0 {
					over.Reset()
					serial.Reset()
				}
				cfg := row.cfg
				cfg.Seed = uint64(11 + i)
				want := serialChainRecord(t, serial, cfg)
				var got []byte
				if row.traced {
					tr := &obs.Trace{Name: "overlap"}
					res, err := RunChainTracedOn(over, cfg, tr)
					if err != nil {
						t.Fatal(err)
					}
					got, _ = json.Marshal(res.Record(cfg))
					checkSlotTXFirst(t, state, tr)
				} else {
					rec, err := RunChainRecordOn(over, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, _ = json.Marshal(rec)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s machine: overlapped record\n%s\nserial stages\n%s", state, got, want)
				}
			}
		})
	}
	checkGoroutines(t, base)
}

// checkSlotTXFirst holds a traced slot's host slot-tx instant to its
// serial place: at the slot's first cycle, ahead of every stage span.
func checkSlotTXFirst(t *testing.T, state string, tr *obs.Trace) {
	t.Helper()
	if len(tr.Spans) == 0 {
		t.Fatalf("%s machine: traced slot recorded no spans", state)
	}
	if s := tr.Spans[0]; s.Track != "host" || s.Name != "slot-tx" || s.Start != 0 || s.End != 0 {
		t.Errorf("%s machine: first span %s/%s [%d, %d], want host/slot-tx [0, 0]", state, s.Track, s.Name, s.Start, s.End)
	}
}

// TestChainOverlapErrorPaths: however a slot fails, RunChainOn returns
// or panics as the serial chain did, and the helper does not outlive
// it. ChainConfig.validate rejects an unknown scheme before the helper
// starts, ahead of the plan error of a machine built for another
// cluster, so no library input now reaches a helper panic; the
// caller's panic comes from a nil machine.
func TestChainOverlapErrorPaths(t *testing.T) {
	cfg := traceTestConfig()
	tera := cfg
	tera.Cluster = arch.TeraPool()
	badScheme := cfg
	badScheme.Scheme = waveform.Scheme(9)
	badBoth := tera
	badBoth.Scheme = badScheme.Scheme

	// replayed returns a machine that replayed cfg's slot and was not
	// Reset since: it refuses the next slot's first Run.
	replayed := func(t *testing.T) *engine.Machine {
		m := engine.NewMachine(cfg.Cluster)
		for range 2 {
			m.Reset()
			if _, err := RunChainOn(m, cfg); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	rows := []struct {
		name      string
		machine   func(*testing.T) *engine.Machine
		cfg       ChainConfig
		wantErr   string // a returned error naming this
		wantPanic string // or a panic naming this
	}{
		{"run on a replayed machine", replayed, cfg, "Reset the machine", ""},
		{"plan on another cluster", fresh(cfg), tera, "config wants TeraPool", ""},
		{"unknown scheme", fresh(cfg), badScheme, "unknown Scheme 9", ""},
		{"unknown scheme over plan error", fresh(cfg), badBoth, "unknown Scheme 9", ""},
		{"caller panic", func(*testing.T) *engine.Machine { return nil }, cfg, "", "nil pointer"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			m := row.machine(t)
			base := runtime.NumGoroutine()
			p, err := runRecovering(m, row.cfg)
			checkGoroutines(t, base)
			switch {
			case row.wantPanic != "":
				if msg := fmt.Sprint(p); p == nil || !strings.Contains(msg, row.wantPanic) {
					t.Fatalf("panic %q (error %v), want a panic naming %q", msg, err, row.wantPanic)
				}
			case p != nil:
				t.Fatalf("panic %v, want an error naming %q", p, row.wantErr)
			case err == nil || !strings.Contains(err.Error(), row.wantErr):
				t.Fatalf("error %v, want one naming %q", err, row.wantErr)
			}
		})
	}
}

// fresh returns a constructor of a new machine for cfg's cluster.
func fresh(cfg ChainConfig) func(*testing.T) *engine.Machine {
	return func(*testing.T) *engine.Machine { return engine.NewMachine(cfg.Cluster) }
}

// runRecovering runs the chain on m and returns the value it panicked
// with on this goroutine, or its error.
func runRecovering(m *engine.Machine, cfg ChainConfig) (p any, err error) {
	defer func() { p = recover() }()
	_, err = RunChainOn(m, cfg)
	return nil, err
}
