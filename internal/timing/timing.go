// Package timing is the analytic timing mode: a calibrated closed-form
// per-stage cycle model that predicts a chain slot's SlotRecord cycle
// fields from its scenario coordinate — dimensions, cluster geometry,
// channel shape — without running the cycle-level engine. It is the
// third timing path next to the engine itself and the service-time
// cache (internal/timecache): the cache makes repeated coordinates
// free, the analytic model makes novel coordinates cheap.
//
// # Model
//
// The simulator's timing is data-independent: a slot's cycle counts
// are a pure function of (cluster geometry, NSC, NR, NB, NL, NSymb,
// NPilot, layout), never of payload, seed, SNR or fading realization.
// The model exploits this by predicting each stage's wall as
//
//	wall(stage) = reps(stage) * max(J0, x . Beta)
//
// where reps is the stage's per-slot repetition count (symbols, pilot
// symbols, data symbols — features.go), J0 is a fitted per-repetition
// wake/barrier plateau (every job enrolls the whole partition, so the
// fork-join wake wave sets a floor that hides small work), and
// x . Beta is a fitted linear form over the stage's work features —
// closed-form mirrors of the kernels' own work-distribution arithmetic
// (FFT batch rounds, busiest-lane MMM window counts, per-lane
// subcarrier slices). Coefficients are fitted per (cluster, stage,
// NSC-class) by weighted least squares under alternating hinge-regime
// assignment (fit.go), with NSC restricted to its three reachable
// classes (64, 256, 1024) so occupancy and contention effects fold
// into class constants. The predicted slot total is the sum of stage
// walls, exactly as the sequential executor accumulates them.
//
// # Calibration and scope
//
// Coefficients are fitted against cycle-accurate golden runs on a fit
// grid and accepted against a disjoint holdout grid (calibrate.go);
// the committed artifact (testdata/calibration.json, artifact.go)
// carries the coefficients, the cluster fingerprints they are keyed
// by, and the error budget they were accepted under. The benchgate
// calibration gate re-evaluates the holdout on every run.
//
// The model covers sequential-layout chain slots without comb
// interpolation; pipelined layouts (whose walls follow the issue-beat
// recurrence, not a stage sum), interpolating runs and use-case slots
// are rejected with errors — the analytic path fails closed, it never
// guesses. Predicted records carry timing only: link-quality fields
// (BER, EVM, sigma) require payload and stay zero.
//
// docs/TIMING.md is the full model specification.
package timing

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/pusch"
	"repro/internal/report"
)

// classKey indexes one fitted hinge inside a cluster's model.
type classKey struct {
	stage string
	nsc   int
}

// Model is a loaded calibration, indexed for prediction. Build one
// with NewModel or Load; a Model is immutable after construction and
// safe for concurrent use by any number of campaign or scheduler
// workers.
type Model struct {
	cal  *Calibration
	fits map[string]map[classKey]hinge // fingerprint -> (stage, nsc) -> hinge
	name map[string]string             // fingerprint -> cluster name
}

// NewModel indexes a calibration for prediction.
func NewModel(cal *Calibration) (*Model, error) {
	m := &Model{
		cal:  cal,
		fits: make(map[string]map[classKey]hinge, len(cal.Clusters)),
		name: make(map[string]string, len(cal.Clusters)),
	}
	for _, cf := range cal.Clusters {
		if cf.Fingerprint == "" {
			return nil, fmt.Errorf("timing: calibration cluster %q carries no geometry fingerprint", cf.Cluster)
		}
		byClass := make(map[classKey]hinge, len(cf.Stages))
		for _, sf := range cf.Stages {
			byClass[classKey{sf.Stage, sf.NSC}] = hinge{J0: sf.J0, Beta: sf.Beta}
		}
		m.fits[cf.Fingerprint] = byClass
		m.name[cf.Fingerprint] = cf.Cluster
	}
	return m, nil
}

// Load reads a calibration artifact and indexes it for prediction.
func Load(path string) (*Model, error) {
	cal, err := LoadCalibration(path)
	if err != nil {
		return nil, err
	}
	return NewModel(cal)
}

// Budget returns the held-out P95 relative-error budget the loaded
// calibration was accepted under.
func (m *Model) Budget() float64 { return m.cal.BudgetP95 }

// Clusters lists the calibrated cluster names, in artifact order.
func (m *Model) Clusters() []string {
	out := make([]string, 0, len(m.cal.Clusters))
	for _, cf := range m.cal.Clusters {
		out = append(out, cf.Cluster)
	}
	return out
}

// Predict evaluates the analytic model at one chain configuration and
// returns the slot's predicted record, stamped Timing = "analytic".
// The configuration is normalized exactly as a chain run would
// normalize it; configurations outside the model's scope — pipelined
// layouts, comb interpolation, clusters the calibration does not
// cover — are errors, never guesses. The prediction depends only on
// the timing coordinate: payload seed, SNR, amplitudes and fading
// realization do not move a single predicted cycle (the record still
// carries the channel coordinates, which identify the scenario).
func (m *Model) Predict(cfg pusch.ChainConfig) (report.SlotRecord, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return report.SlotRecord{}, err
	}
	if cfg.Layout.Pipelined() {
		return report.SlotRecord{}, fmt.Errorf("timing: analytic mode covers sequential layouts only (pipelined walls follow the issue-beat recurrence); run layout %q cycle-accurately", cfg.Layout)
	}
	if cfg.InterpolateChannel {
		return report.SlotRecord{}, fmt.Errorf("timing: analytic mode is not calibrated for comb interpolation; run cycle-accurately")
	}
	fp := pusch.ArchFingerprint(cfg.Cluster)
	byClass, ok := m.fits[fp]
	if !ok {
		return report.SlotRecord{}, fmt.Errorf("timing: cluster %q (%d cores) is not in the calibration (calibrated: %s); regenerate with `go run ./cmd/benchgate -update-calibration`",
			cfg.Cluster.Name, cfg.Cluster.NumCores(), strings.Join(m.Clusters(), ", "))
	}

	cores := cfg.Cluster.NumCores()
	rp := reps(cfg)
	fx := features(cfg, cores)
	phases := make([]report.SlotPhase, 0, numStages)
	var total int64
	for i, st := range pusch.Stages {
		h, ok := byClass[classKey{stageKeys[st], cfg.NSC}]
		if !ok {
			return report.SlotRecord{}, fmt.Errorf("timing: no calibrated %s model for NSC=%d on %s; regenerate the calibration", stageKeys[st], cfg.NSC, cfg.Cluster.Name)
		}
		x := fx[i].terms()
		if len(h.Beta) != len(x) {
			return report.SlotRecord{}, fmt.Errorf("timing: calibrated %s model has %d coefficients, feature basis has %d — stale artifact, regenerate", stageKeys[st], len(h.Beta), len(x))
		}
		w := math.Round(rp[i] * h.predict(x))
		if !(w < 1<<53) {
			// NaN, infinite or past exact integers: five such walls could
			// overflow the total. Fail closed, as for a missing class.
			return report.SlotRecord{}, fmt.Errorf("timing: calibrated %s model predicts %g cycles for NSC=%d on %s; regenerate the calibration", stageKeys[st], w, cfg.NSC, cfg.Cluster.Name)
		}
		wall := int64(max(w, 0))
		total += wall
		phases = append(phases, report.SlotPhase{
			Name:    string(st),
			PerPass: wall,
			Passes:  1,
			Cycles:  wall,
		})
	}
	for i := range phases {
		if total > 0 {
			phases[i].Share = float64(phases[i].Cycles) / float64(total)
		}
	}

	dims := pusch.Dims{NSC: cfg.NSC, NSymb: cfg.NSymb, NPilot: cfg.NPilot, NR: cfg.NR, NB: cfg.NB, NL: cfg.NL}
	bits := dims.PayloadBits(cfg.Scheme.BitsPerSymbol())
	rec := report.SlotRecord{
		Kind:           "chain",
		Cluster:        cfg.Cluster.Name,
		Cores:          cores,
		UEs:            cfg.NL,
		Scheme:         cfg.Scheme.Name(),
		Phases:         phases,
		TotalCycles:    total,
		TimeMs:         float64(total) / 1e6,
		PayloadBits:    bits,
		ThroughputGbps: report.Gbps(bits, total),
		Timing:         string(pusch.TimingAnalytic),
	}
	if !cfg.Channel.Legacy() {
		// The fading realization never moves predicted cycles, but it is
		// part of the scenario coordinate the record identifies.
		rec.Channel = string(cfg.Channel.EffectiveProfile())
		rec.DopplerHz = cfg.Channel.DopplerHz
		rec.RicianK = cfg.Channel.RicianK
		rec.ChannelSeed = cfg.Channel.Seed
		rec.ChannelTimeMs = cfg.Channel.TimeMs
	}
	return rec, nil
}
