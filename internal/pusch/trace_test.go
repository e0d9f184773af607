package pusch

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/obs"
	"repro/internal/waveform"
)

// traceTestConfig is the small sequential MemPool slot the golden span
// pin runs: the bench_test 64-SC coordinate with a pinned payload seed.
func traceTestConfig() ChainConfig {
	return ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 6, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
}

// TestChainTraceGoldenSpanCount pins the span inventory of the
// sequential 64-SC MemPool slot. The count is a golden value: it moves
// only when the chain's job structure (stages, per-symbol jobs,
// barriers, handshakes) changes, which is exactly what a reviewer
// should sign off on.
func TestChainTraceGoldenSpanCount(t *testing.T) {
	tr := &obs.Trace{Name: "golden"}
	if _, err := RunChainTraced(traceTestConfig(), tr); err != nil {
		t.Fatal(err)
	}
	const wantSpans = 344
	if len(tr.Spans) != wantSpans {
		t.Errorf("sequential 64-SC slot recorded %d spans, want %d (chain job structure changed?)", len(tr.Spans), wantSpans)
	}
	byTrack := map[string]int{}
	for _, s := range tr.Spans {
		if s.End < s.Start {
			t.Fatalf("span %s/%s runs backwards: [%d, %d]", s.Track, s.Name, s.Start, s.End)
		}
		byTrack[s.Track]++
	}
	// The host instants (slot-tx, score) and the whole-cluster stage
	// windows must be present on their canonical tracks.
	if got := byTrack["host"]; got != 2 {
		t.Errorf("host track has %d spans, want 2 (slot-tx, score)", got)
	}
	if byTrack[obs.CoreTrack(0, 255)] == 0 {
		t.Errorf("no spans on the whole-cluster track; tracks = %v", byTrack)
	}
}

// TestChainTracedMatchesUntraced: tracing is observation only — the
// traced run's result must equal the untraced run's, field for field,
// and its record byte for byte. A traced run attaches an engine Tracer
// and so simulates every symbol, while an untraced sequential slot
// replays its steady-state stages (engine.Machine.RunSynced), so each
// slot here also holds replay to full simulation.
func TestChainTracedMatchesUntraced(t *testing.T) {
	gate := traceTestConfig()
	gate.NSymb = 14
	wide := gate
	wide.NSC = 256
	tera := wide
	tera.Cluster = arch.TeraPool()
	qam := gate
	qam.NL, qam.Scheme = 2, waveform.QAM16
	tdl := traceTestConfig()
	tdl.Channel = channel.Spec{Profile: channel.TDLB, DopplerHz: 30, Seed: 5, TimeMs: 2}
	rows := []struct {
		name string
		cfg  ChainConfig
	}{
		{"MemPool 64-SC 14-symbol", gate},
		{"MemPool 256-SC 14-symbol", wide},
		{"TeraPool 256-SC 14-symbol", tera},
		{"MemPool 64-SC 2-UE 16-QAM", qam},
		{"MemPool 64-SC 6-symbol TDL-B", tdl},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			plain, err := RunChain(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := &obs.Trace{Name: "traced"}
			traced, err := RunChainTraced(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("traced result diverges from untraced:\nplain:  %+v\ntraced: %+v", plain, traced)
			}
			want, err := json.Marshal(traced.Record(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := json.Marshal(plain.Record(cfg)); !bytes.Equal(got, want) {
				t.Errorf("untraced record\n%s\ntraced record\n%s", got, want)
			}
			if len(tr.Spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			// A nil trace must behave exactly like RunChain.
			untr, err := RunChainTraced(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, untr) {
				t.Error("RunChainTraced(cfg, nil) diverges from RunChain")
			}
		})
	}
}

// TestChainTraceDeterministic: identical configs record identical span
// sequences.
func TestChainTraceDeterministic(t *testing.T) {
	run := func() []obs.Span {
		tr := &obs.Trace{Name: "d"}
		if _, err := RunChainTraced(traceTestConfig(), tr); err != nil {
			t.Fatal(err)
		}
		return tr.Spans
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("span sequences differ between identical runs")
	}
}

// TestPipelinedTraceTracks: under the stock pipelined layout, stage
// spans land on the three partition tracks, so the exported trace shows
// the spatial pipeline as concurrent rows.
func TestPipelinedTraceTracks(t *testing.T) {
	cfg := traceTestConfig()
	cfg.Layout = StockPipelined(arch.MemPool())
	tr := &obs.Trace{Name: "pipe"}
	if _, err := RunChainTraced(cfg, tr); err != nil {
		t.Fatal(err)
	}
	byTrack := map[string]int{}
	for _, s := range tr.Spans {
		byTrack[s.Track]++
	}
	parts := 0
	for track, n := range byTrack {
		if track == "host" || n == 0 {
			continue
		}
		if strings.HasPrefix(track, "cores ") {
			parts++
		}
	}
	if parts < 3 {
		t.Errorf("pipelined trace uses %d partition tracks, want >= 3; tracks = %v", parts, byTrack)
	}
	// The FFT partition must appear under its own track, distinct from
	// the whole cluster.
	fft := cfg.Layout.FFT
	if byTrack[obs.CoreTrack(fft[0], fft[len(fft)-1])] == 0 {
		t.Errorf("no spans on the FFT partition track; tracks = %v", byTrack)
	}
}

// TestBarrierWaitSpansPresent: the machine-level spans must include
// barrier sync intervals with a wait breakdown — the observability
// layer's whole point is making synchronization time visible.
func TestBarrierWaitSpansPresent(t *testing.T) {
	tr := &obs.Trace{Name: "b"}
	if _, err := RunChainTraced(traceTestConfig(), tr); err != nil {
		t.Fatal(err)
	}
	barriers := 0
	for _, s := range tr.Spans {
		if s.Name == "barrier/sync" {
			barriers++
			if s.Climb <= 0 || s.Wake <= 0 {
				t.Fatalf("barrier span missing climb/wake: %+v", s)
			}
		}
	}
	if barriers == 0 {
		t.Fatal("no barrier/sync spans recorded")
	}
}
