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
	good, err := PipelinedSplit(mp, 64, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.validate(mp, 256); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	// FFT partition below the lane demand.
	small, err := PipelinedSplit(mp, 8, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.validate(mp, 256); err == nil {
		t.Error("8-core FFT partition accepted for a 16-lane FFT")
	}
	// Overlapping distinct partitions.
	overlap := good
	overlap.BF = CoreSet{60, 61, 62, 63}
	if err := overlap.validate(mp, 256); err == nil {
		t.Error("overlapping fft/bf partitions accepted")
	}
	// Missing stage.
	missing := good
	missing.NE = nil
	if err := missing.validate(mp, 256); err == nil {
		t.Error("layout with an unassigned stage accepted")
	}
	// Out-of-range core.
	oor := good
	oor.MIMO = CoreSet{1 << 20}
	if err := oor.validate(mp, 256); err == nil {
		t.Error("out-of-range core accepted")
	}
	// Shared partitions (che == ne == mimo) are legal; the stock layout
	// relies on it.
	if err := StockPipelined(mp).validate(mp, 256); err != nil {
		t.Errorf("stock layout invalid: %v", err)
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

// TestPipelinedRunSymbolContract pins the pipelined Pipeline's API
// contract: symbols must arrive in order and never after Drain.
func TestPipelinedRunSymbolContract(t *testing.T) {
	cfg := pipelinedGoldenConfig()
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(engine.NewMachine(cfg.Cluster), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.RunSymbol(1, nil); err == nil {
		t.Error("out-of-order RunSymbol accepted")
	}
	if err := pl.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := pl.RunSymbol(0, nil); err == nil {
		t.Error("RunSymbol after Drain accepted")
	}
	// One symbol past the slot length must error, not panic on the
	// finish-time slices.
	pl2, err := NewPipeline(engine.NewMachine(cfg.Cluster), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl2.issued = cfg.NSymb
	if err := pl2.RunSymbol(cfg.NSymb, nil); err == nil {
		t.Error("RunSymbol past NSymb accepted")
	}
}
