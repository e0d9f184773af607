package timing

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/waveform"
)

// committedModel loads the committed calibration artifact; every test
// that exercises prediction against real coefficients shares it.
func committedModel(t *testing.T) *Model {
	t.Helper()
	m, err := Load("../../testdata/calibration.json")
	if err != nil {
		t.Fatalf("loading committed calibration: %v", err)
	}
	return m
}

// scopeConfig is a chain coordinate squarely inside the model's scope:
// stock MemPool, sequential layout, no interpolation.
func scopeConfig() pusch.ChainConfig {
	return pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 6, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
}

// TestCalibrationRoundTrip is the fit-persist-reload contract: a model
// fitted on a reduced grid, written to disk and loaded back predicts
// identically to the in-memory fit, and its held-out error on the
// grid's NSC class stays under the committed budget.
func TestCalibrationRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("fits against cycle-accurate golden runs")
	}
	cluster := arch.MemPool()
	var fit, holdout []GridPoint
	for _, pt := range FitGrid() {
		if pt.NSC == 64 {
			fit = append(fit, pt)
		}
	}
	for _, pt := range HoldoutGrid() {
		if pt.NSC == 64 {
			holdout = append(holdout, pt)
		}
	}

	cal, err := CalibrateGrid([]*arch.Config{cluster}, fit, 0)
	if err != nil {
		t.Fatalf("CalibrateGrid: %v", err)
	}
	if cal.BudgetP95 != DefaultBudgetP95 {
		t.Errorf("fitted budget = %v, want default %v", cal.BudgetP95, DefaultBudgetP95)
	}

	path := filepath.Join(t.TempDir(), "calibration.json")
	if err := cal.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	reloaded, err := LoadCalibration(path)
	if err != nil {
		t.Fatalf("LoadCalibration: %v", err)
	}
	if !reflect.DeepEqual(cal, reloaded) {
		t.Fatal("calibration did not survive the write/read round trip")
	}

	fitted, err := NewModel(cal)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scopeConfig()
	a, err := fitted.Predict(cfg)
	if err != nil {
		t.Fatalf("fitted Predict: %v", err)
	}
	b, err := loaded.Predict(cfg)
	if err != nil {
		t.Fatalf("loaded Predict: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("loaded model predicts differently from the in-memory fit")
	}

	stats, err := loaded.Evaluate(cluster, holdout)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if stats.P95 > cal.BudgetP95 {
		t.Errorf("held-out P95 relative error %.4f exceeds budget %.4f", stats.P95, cal.BudgetP95)
	}
}

// TestCommittedCalibrationHoldout spot-checks the committed artifact
// against freshly measured golden points — a cheap in-tree echo of the
// benchgate calibration gate.
func TestCommittedCalibrationHoldout(t *testing.T) {
	if testing.Short() {
		t.Skip("measures cycle-accurate golden runs")
	}
	m := committedModel(t)
	if got := m.Budget(); got != DefaultBudgetP95 {
		t.Errorf("committed budget = %v, want %v", got, DefaultBudgetP95)
	}
	if got := m.Clusters(); len(got) != 2 || got[0] != "MemPool" || got[1] != "TeraPool" {
		t.Errorf("committed clusters = %v, want [MemPool TeraPool]", got)
	}

	pts := []GridPoint{HoldoutGrid()[0], HoldoutGrid()[3]}
	stats, err := m.Evaluate(arch.MemPool(), pts)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if stats.P95 > m.Budget() {
		t.Errorf("MemPool held-out P95 relative error %.4f exceeds budget %.4f", stats.P95, m.Budget())
	}
	for _, pe := range stats.Points {
		if pe.Predicted <= 0 || pe.Measured <= 0 {
			t.Errorf("point %+v: degenerate cycles predicted=%d measured=%d", pe.Point, pe.Predicted, pe.Measured)
		}
	}
}

// TestPredictRecordShape: a prediction is a well-formed analytic slot
// record — stamped, phase-complete, with the total equal to the stage
// sum exactly as the sequential executor accumulates it.
func TestPredictRecordShape(t *testing.T) {
	m := committedModel(t)
	rec, err := m.Predict(scopeConfig())
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if rec.Timing != string(pusch.TimingAnalytic) {
		t.Errorf("record timing = %q, want %q", rec.Timing, pusch.TimingAnalytic)
	}
	if rec.Kind != "chain" || rec.Cluster != "MemPool" || rec.Cores != 256 || rec.UEs != 4 {
		t.Errorf("record identity fields wrong: %+v", rec)
	}
	if len(rec.Phases) != len(pusch.Stages) {
		t.Fatalf("record has %d phases, want %d", len(rec.Phases), len(pusch.Stages))
	}
	var sum int64
	for i, ph := range rec.Phases {
		if ph.Name != string(pusch.Stages[i]) {
			t.Errorf("phase %d named %q, want %q", i, ph.Name, pusch.Stages[i])
		}
		if ph.Cycles <= 0 {
			t.Errorf("phase %q predicted %d cycles", ph.Name, ph.Cycles)
		}
		sum += ph.Cycles
	}
	if rec.TotalCycles != sum {
		t.Errorf("total %d != stage sum %d", rec.TotalCycles, sum)
	}
	if rec.PayloadBits <= 0 || rec.ThroughputGbps <= 0 {
		t.Errorf("throughput fields not filled: %+v", rec)
	}
	if rec.BER != 0 || rec.EVMdB != 0 {
		t.Errorf("analytic record carries link-quality fields: %+v", rec)
	}
}

// TestPredictAllocatesOnlyPhases: Predict runs on every analytic job of
// a serve, so its only allocation is the record's phases; the feature
// bases live in fixed-size arrays.
func TestPredictAllocatesOnlyPhases(t *testing.T) {
	m := committedModel(t)
	cfg := scopeConfig()
	if _, err := m.Predict(cfg); err != nil { // warms the fingerprint memo
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = m.Predict(cfg) }); n != 1 {
		t.Errorf("Predict allocates %v times, want 1 (the phases)", n)
	}
}

// TestPredictDataIndependence: the prediction is a pure function of the
// timing coordinate — payload seed, SNR and fading realization move
// nothing.
func TestPredictDataIndependence(t *testing.T) {
	m := committedModel(t)
	base := scopeConfig()
	ref, err := m.Predict(base)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*pusch.ChainConfig){
		"seed": func(c *pusch.ChainConfig) { c.Seed = 99 },
		"snr":  func(c *pusch.ChainConfig) { c.SNRdB = -3 },
	} {
		cfg := base
		mutate(&cfg)
		got, err := m.Predict(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("%s: prediction moved with a timing-invariant coordinate", name)
		}
	}

	// A fading channel changes the record's identity coordinates but not
	// one predicted cycle.
	cfg := base
	cfg.Channel.Profile = "tdl-a"
	cfg.Channel.DopplerHz = 120
	cfg.Channel.Seed = 7
	got, err := m.Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalCycles != ref.TotalCycles || !reflect.DeepEqual(got.Phases, ref.Phases) {
		t.Error("fading coordinates moved predicted cycles")
	}
	if got.Channel != "tdl-a" || got.ChannelSeed != 7 {
		t.Errorf("fading identity not stamped: %+v", got)
	}
}

// TestPredictScope: coordinates outside the calibrated scope fail
// closed with errors — pipelined layouts, comb interpolation, and
// geometries the artifact does not cover.
func TestPredictScope(t *testing.T) {
	m := committedModel(t)

	piped := scopeConfig()
	piped.Layout = pusch.StockPipelined(piped.Cluster)
	if _, err := m.Predict(piped); err == nil {
		t.Error("pipelined layout: want error, got prediction")
	}

	interp := scopeConfig()
	interp.InterpolateChannel = true
	if _, err := m.Predict(interp); err == nil {
		t.Error("comb interpolation: want error, got prediction")
	}

	scaled := *arch.MemPool()
	scaled.Groups = 8
	foreign := scopeConfig()
	foreign.Cluster = &scaled
	if _, err := m.Predict(foreign); err == nil {
		t.Error("uncalibrated geometry: want error, got prediction")
	}

	invalid := scopeConfig()
	invalid.NSC = 63
	if _, err := m.Predict(invalid); err == nil {
		t.Error("invalid chain config: want error, got prediction")
	}
}

// TestAnalyticSpeedup: the acceptance floor — predicting a novel
// coordinate must be at least 50x faster than running it cold on the
// cycle-accurate engine. In practice the gap is several orders of
// magnitude; 50x leaves room for host noise.
func TestAnalyticSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("times a cycle-accurate engine run")
	}
	m := committedModel(t)
	cfg := scopeConfig()
	cfg.NSC = 256
	cfg.NR = 24
	cfg.NSymb = 10

	start := time.Now()
	pool := engine.NewMachines()
	mach := pool.Get(cfg.Cluster)
	if _, err := pusch.RunChainOn(mach, cfg); err != nil {
		t.Fatalf("cold engine run: %v", err)
	}
	pool.Put(mach)
	cold := time.Since(start)

	const n = 200
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := m.Predict(cfg); err != nil {
			t.Fatalf("Predict: %v", err)
		}
	}
	analytic := time.Since(start) / n

	if analytic <= 0 {
		return // below timer resolution: trivially fast enough
	}
	if ratio := float64(cold) / float64(analytic); ratio < 50 {
		t.Errorf("analytic prediction only %.1fx faster than cold engine run (cold %v, analytic %v), want >= 50x",
			ratio, cold, analytic)
	}
}

// TestArtifactSchemaGate: artifacts under a foreign schema or without a
// positive budget are refused at load.
func TestArtifactSchemaGate(t *testing.T) {
	dir := t.TempDir()
	for name, cal := range map[string]Calibration{
		"schema": {Schema: "timing-cal/v0", BudgetP95: 0.05},
		"budget": {Schema: Schema},
	} {
		path := filepath.Join(dir, name+".json")
		if err := cal.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCalibration(path); err == nil {
			t.Errorf("%s: want load error, got artifact", name)
		}
	}
}
