package pusch

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/waveform"
)

func TestParseLayoutForms(t *testing.T) {
	mp := arch.MemPool()
	for _, name := range []string{"", "seq", "sequential", "SEQUENTIAL"} {
		lay, err := ParseLayout(name, mp)
		if err != nil {
			t.Fatalf("ParseLayout(%q): %v", name, err)
		}
		if lay.Pipelined() {
			t.Errorf("ParseLayout(%q) is pipelined", name)
		}
		if got := lay.String(); got != "sequential" {
			t.Errorf("ParseLayout(%q).String() = %q", name, got)
		}
	}
	stock, err := ParseLayout("pipe", mp)
	if err != nil {
		t.Fatal(err)
	}
	if got := stock.String(); got != "pipe/f128/b64/d64" {
		t.Errorf("stock MemPool layout = %q, want pipe/f128/b64/d64", got)
	}
	tp, err := ParseLayout("pipelined", arch.TeraPool())
	if err != nil {
		t.Fatal(err)
	}
	if got := tp.String(); got != "pipe/f512/b256/d256" {
		t.Errorf("stock TeraPool layout = %q, want pipe/f512/b256/d256", got)
	}
	explicit, err := ParseLayout("pipe/f64/b32/d64", mp)
	if err != nil {
		t.Fatal(err)
	}
	if got := explicit.String(); got != "pipe/f64/b32/d64" {
		t.Errorf("explicit split round-trip = %q", got)
	}
	if w, err := explicit.Wire(); err != nil || w != "pipe/f64/b32/d64" {
		t.Errorf("Wire() = %q, %v", w, err)
	}
	for _, bad := range []string{"bogus", "pipe/x64/b32/d64", "pipe/f64/b32", "pipe/f64/b32/dxx", "pipe/f999/b64/d64",
		"pipe/f9223372036854775807/b1/d1"} {
		if _, err := ParseLayout(bad, mp); err == nil {
			t.Errorf("ParseLayout(%q) accepted", bad)
		}
	}
	// Hand-built non-canonical layouts have no wire form.
	custom := Layout{
		FFT: CoreSet{0, 2, 4, 6}, BF: CoreSet{1, 3},
		CHE: CoreSet{8}, NE: CoreSet{8}, MIMO: CoreSet{8},
	}
	if _, err := custom.Wire(); err == nil {
		t.Error("custom layout produced a wire form")
	}
}

func TestLayoutValidate(t *testing.T) {
	mp := arch.MemPool()
	split := func(f, b, d int) Layout {
		l, err := PipelinedSplit(mp, f, b, d)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	good := split(64, 32, 64)
	edit := func(f func(*Layout)) Layout {
		l := good
		f(&l)
		return l
	}
	p0, p1, p2, p3 := coreRange(0, 64), coreRange(64, 64), coreRange(128, 64), coreRange(192, 64)
	for _, tc := range []struct {
		name string
		lay  Layout
		ok   bool
	}{
		{"three-way split", good, true},
		// The stock layout shares one partition among che, ne and mimo.
		{"stock", StockPipelined(mp), true},
		// The noise combine runs alone, so it may share any partition.
		{"ne shares fft", Layout{FFT: p0, BF: p1, CHE: p2, NE: p0, MIMO: p2}, true},
		{"che apart from mimo", Layout{FFT: p0, BF: p1, CHE: p2, NE: p2, MIMO: p3}, true},
		{"fft below lane demand", split(2, 32, 64), false},
		{"overlapping fft and bf", edit(func(l *Layout) { l.BF = CoreSet{60, 61, 62, 63} }), false},
		{"unassigned stage", edit(func(l *Layout) { l.NE = nil }), false},
		{"out-of-range core", edit(func(l *Layout) { l.MIMO = CoreSet{1 << 20} }), false},
		{"core listed twice", edit(func(l *Layout) { l.BF = CoreSet{64, 65, 64} }), false},
		// One beat runs FFT(k), BF(k-1) and the detection of k-2 as
		// concurrent jobs, so none of them may share a partition.
		{"fft shares bf", Layout{FFT: p0, BF: p0, CHE: p1, NE: p1, MIMO: p1}, false},
		{"fft shares detection", Layout{FFT: p0, BF: p1, CHE: p0, NE: p0, MIMO: p0}, false},
		{"bf shares detection", Layout{FFT: p0, BF: p1, CHE: p1, NE: p1, MIMO: p1}, false},
	} {
		cfg := ChainConfig{
			Cluster: mp,
			NSC:     64, NR: 16, NB: 8, NL: 4,
			NSymb: 14, NPilot: 2,
			Scheme: waveform.QPSK,
			SNRdB:  20,
			Seed:   1,
			Layout: tc.lay,
		}
		err := tc.lay.validate(mp, cfg.NSC)
		if (err == nil) != tc.ok {
			t.Errorf("%s: validate = %v, want ok %v", tc.name, err, tc.ok)
			continue
		}
		// Every accepted layout must run: validate is the only guard
		// between a layout and Machine.Run's disjoint-core check.
		if tc.ok {
			if _, err := RunChain(cfg); err != nil {
				t.Errorf("%s: accepted layout fails to run: %v", tc.name, err)
			}
		}
	}
	stock := StockPipelined(mp)
	if n := testing.AllocsPerRun(100, func() { _ = stock.validate(mp, 256) }); n > 1 {
		t.Errorf("stock layout validates in %v allocations, want at most 1", n)
	}
}

// TestGoldenSequentialLayout pins the legacy execution path: an
// explicit Layout: Sequential (like the zero value the other goldens
// run) must reproduce the pre-layout chain's cycle count, link metrics
// and per-stage wall breakdown exactly. Any drift here means the
// layout refactor changed the sequential chain.
func TestGoldenSequentialLayout(t *testing.T) {
	cfg := goldenChainConfig()
	cfg.Layout = Sequential
	res, err := RunChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != 19085 {
		t.Errorf("cycles = %d, want golden 19085", res.TotalCycles)
	}
	if res.BER != 0.017578125 {
		t.Errorf("BER = %v, want golden 0.017578125", res.BER)
	}
	if res.EVMdB != -5.516783692944013 {
		t.Errorf("EVM = %v, want golden -5.516783692944013", res.EVMdB)
	}
	if res.SigmaEst != 6.4849853515625e-05 {
		t.Errorf("sigma^2 = %v, want golden 6.4849853515625e-05", res.SigmaEst)
	}
	wantWalls := map[Stage]int64{
		StageOFDM: 5124,
		StageBF:   2647,
		StageCHE:  4428,
		StageNE:   2336,
		StageMIMO: 4550,
	}
	for st, want := range wantWalls {
		if got := res.Stages[st].Wall; got != want {
			t.Errorf("stage %s wall = %d, want golden %d", st, got, want)
		}
	}
	// The wire record must omit the layout coordinate for sequential
	// runs, keeping the pre-layout bytes.
	if rec := res.Record(cfg); rec.Layout != "" {
		t.Errorf("sequential record carries layout %q", rec.Layout)
	}
}

// pipelinedGoldenConfig is the golden operating point under the stock
// partitioned layout.
func pipelinedGoldenConfig() ChainConfig {
	cfg := goldenChainConfig()
	cfg.Layout = StockPipelined(cfg.Cluster)
	return cfg
}

// TestPipelinedDeterministicAcrossMachines runs the pipelined chain on
// a fresh machine, a caller-supplied machine and a Reset reused one,
// requiring identical cycles, metrics and stage walls: the property the
// campaign and scheduler byte-determinism contracts rest on.
func TestPipelinedDeterministicAcrossMachines(t *testing.T) {
	cfg := pipelinedGoldenConfig()
	fresh, err := RunChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := engine.NewMachine(arch.MemPool())
	first, err := RunChainOn(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	reused, err := RunChainOn(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name string
		a, b *ChainResult
	}{
		{"fresh vs supplied", fresh, first},
		{"fresh vs reused", fresh, reused},
	} {
		a, b := pair.a, pair.b
		if a.TotalCycles != b.TotalCycles {
			t.Errorf("%s: cycles %d vs %d", pair.name, a.TotalCycles, b.TotalCycles)
		}
		if a.BER != b.BER || a.EVMdB != b.EVMdB || a.SigmaEst != b.SigmaEst {
			t.Errorf("%s: link metrics diverge", pair.name)
		}
		for _, st := range Stages {
			if a.Stages[st].Wall != b.Stages[st].Wall {
				t.Errorf("%s: stage %s wall %d vs %d", pair.name, st, a.Stages[st].Wall, b.Stages[st].Wall)
			}
		}
	}
	// The record carries the layout coordinate.
	if rec := fresh.Record(cfg); rec.Layout != "pipe/f128/b64/d64" {
		t.Errorf("pipelined record layout = %q", rec.Layout)
	}
}

// TestPipelinedRaceDetectorClean runs the pipelined chain with the
// fork-join race detector armed: the double-buffered inter-stage
// regions and the partition handshakes must never let two partitions
// touch one word in the same phase. A race panics, failing the test.
func TestPipelinedRaceDetectorClean(t *testing.T) {
	cfg := pipelinedGoldenConfig()
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	m := engine.NewMachine(cfg.Cluster)
	m.DebugRaces = true
	if _, err := RunChainOn(m, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedBeatsSequentialOnGateShape pins the headline result the
// CI layout gate enforces: on the stock MemPool cluster serving a
// small (64-subcarrier) allocation — the regime where per-kernel
// parallelism saturates far below the core count — the stock pipelined
// layout must finish the slot in fewer cycles than the sequential one.
func TestPipelinedBeatsSequentialOnGateShape(t *testing.T) {
	base := ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 14, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
	seq, err := RunChain(base)
	if err != nil {
		t.Fatal(err)
	}
	piped := base
	piped.Layout = StockPipelined(base.Cluster)
	pip, err := RunChain(piped)
	if err != nil {
		t.Fatal(err)
	}
	if pip.TotalCycles >= seq.TotalCycles {
		t.Errorf("pipelined %d cycles >= sequential %d on the gate shape", pip.TotalCycles, seq.TotalCycles)
	}
	if pip.BER > 2*seq.BER+0.01 {
		t.Errorf("pipelined BER %v implausibly worse than sequential %v", pip.BER, seq.BER)
	}
}

// TestPipelinedRunSymbolContract pins RunSymbol's contract on both
// layouts: symbols arrive in order 0..NSymb-1 and never after Drain, and
// rx holds NR rows of NSC samples. A call that breaks it must return an
// error without running anything, not panic or simulate one more stage.
func TestPipelinedRunSymbolContract(t *testing.T) {
	samples := func(rows, cols int) [][]complex128 {
		rx := make([][]complex128, rows)
		for a := range rx {
			rx[a] = make([]complex128, cols)
		}
		return rx
	}
	for _, layout := range []string{"sequential", "pipelined"} {
		cfg := goldenChainConfig()
		if layout == "pipelined" {
			cfg.Layout = StockPipelined(cfg.Cluster)
		}
		cfg.setDefaults()
		if err := cfg.validate(); err != nil {
			t.Fatal(err)
		}
		good := samples(cfg.NR, cfg.NSC)
		long := samples(cfg.NR, cfg.NSC)
		long[3] = make([]complex128, cfg.NSC+1)
		short := samples(cfg.NR, cfg.NSC)
		short[0] = short[0][:cfg.NSC-1]
		rows := []struct {
			name    string
			run     int  // symbols run first
			drained bool // Drain before the call
			s       int
			rx      [][]complex128
		}{
			{name: "out of order", s: 1, rx: good},
			{name: "negative symbol", s: -1, rx: good},
			{name: "past the slot", run: cfg.NSymb, s: cfg.NSymb, rx: good},
			{name: "after Drain", drained: true, s: 0, rx: good},
			{name: "row longer than NSC", s: 0, rx: long},
			{name: "row shorter than NSC", s: 0, rx: short},
			{name: "fewer than NR rows", s: 0, rx: good[:cfg.NR-1]},
			{name: "no rows", s: 0, rx: nil},
		}
		for _, row := range rows {
			t.Run(layout+"/"+row.name, func(t *testing.T) {
				m := engine.NewMachine(cfg.Cluster)
				pl, err := NewPipeline(m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for s := range row.run {
					if err := pl.RunSymbol(s, good); err != nil {
						t.Fatal(err)
					}
				}
				if row.drained {
					if err := pl.Drain(); err != nil {
						t.Fatal(err)
					}
				}
				before := m.Cycles()
				if err := pl.RunSymbol(row.s, row.rx); err == nil {
					t.Errorf("RunSymbol(%d) accepted", row.s)
				}
				if m.Cycles() != before {
					t.Errorf("rejected RunSymbol(%d) advanced the clock %d -> %d", row.s, before, m.Cycles())
				}
			})
		}
	}
}
