package timing

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/waveform"
)

// GridPoint is one dimension coordinate of the calibration grids. The
// slot's timing-invariant coordinates (payload seed, SNR, scheme,
// fading) are pinned to fixed values by gridConfig — the simulator's
// timing is data-independent, so one golden run per dimension point
// calibrates every payload at that point.
type GridPoint struct {
	NSC, NR, NB, NL, NSymb int
}

// FitGrid returns the calibration fit grid: for every NSC class, the
// full NB x NL cross at a small-antenna short slot and a large-antenna
// long slot. 54 points per cluster, enough rows per (stage, class) to
// pin both hinge arms while staying disjoint from HoldoutGrid.
func FitGrid() []GridPoint {
	var pts []GridPoint
	for _, nsc := range []int{64, 256, 1024} {
		for _, nb := range []int{4, 8, 16} {
			for _, nl := range []int{1, 2, 4} {
				nrLo := 8
				if nb > nrLo {
					nrLo = nb
				}
				pts = append(pts,
					GridPoint{nsc, nrLo, nb, nl, 4},
					GridPoint{nsc, 32, nb, nl, 12},
				)
			}
		}
	}
	return pts
}

// HoldoutGrid returns the held-out acceptance grid: nine points the
// fit grid never visits (different NR, NSymb and cross combinations),
// spanning all three NSC classes. The benchgate calibration gate
// re-measures these cycle-accurately on every run and fails when the
// model's P95 relative total-cycle error exceeds the committed budget.
func HoldoutGrid() []GridPoint {
	return []GridPoint{
		{64, 16, 8, 2, 8}, {64, 20, 16, 4, 10}, {64, 12, 4, 1, 14},
		{256, 12, 4, 4, 6}, {256, 24, 16, 2, 14}, {256, 16, 8, 1, 10},
		{1024, 16, 8, 1, 6}, {1024, 24, 16, 4, 8}, {1024, 12, 8, 2, 14},
	}
}

// gridConfig pins the timing-invariant coordinates of one golden run.
func gridConfig(cluster *arch.Config, pt GridPoint) pusch.ChainConfig {
	return pusch.ChainConfig{
		Cluster: cluster,
		NSC:     pt.NSC, NR: pt.NR, NB: pt.NB, NL: pt.NL,
		NSymb: pt.NSymb, NPilot: 2,
		Scheme: waveform.QPSK, SNRdB: 20, Seed: 1,
	}
}

// tryRun measures one golden point, converting both validation errors
// and allocation panics (a grid point whose working set overflows the
// cluster's TCDM arena) into a skip: the grids deliberately probe near
// the capacity edge, and an infeasible point carries no information.
func tryRun(pool *engine.Machines, cfg pusch.ChainConfig) (stages map[pusch.Stage]engine.Report, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	m := pool.Get(cfg.Cluster)
	defer pool.Put(m)
	res, err := pusch.RunChainOn(m, cfg)
	if err != nil {
		return nil, false
	}
	return res.Stages, true
}

// measureGrid runs the cycle-accurate chain at every feasible grid
// point and returns the kept configurations with their per-stage
// walls, in grid order.
func measureGrid(cluster *arch.Config, pts []GridPoint) ([]pusch.ChainConfig, []map[pusch.Stage]engine.Report) {
	pool := engine.NewMachines()
	var cfgs []pusch.ChainConfig
	var walls []map[pusch.Stage]engine.Report
	for _, pt := range pts {
		cfg := gridConfig(cluster, pt)
		st, ok := tryRun(pool, cfg)
		if !ok {
			continue
		}
		cfgs = append(cfgs, cfg)
		walls = append(walls, st)
	}
	return cfgs, walls
}

// CalibrateGrid fits the full model on the given fit grid for each
// cluster and returns the artifact, budget included. Fitting measures
// every feasible grid point cycle-accurately — minutes of host time —
// which is why the artifact is committed rather than fitted on use.
// The fit is deterministic: same tree, same grid, same bytes.
func CalibrateGrid(clusters []*arch.Config, pts []GridPoint, budget float64) (*Calibration, error) {
	if budget <= 0 {
		budget = DefaultBudgetP95
	}
	cal := &Calibration{Schema: Schema, BudgetP95: budget}
	for _, cl := range clusters {
		cfgs, walls := measureGrid(cl, pts)
		if len(cfgs) == 0 {
			return nil, fmt.Errorf("timing: no feasible fit points on %s", cl.Name)
		}
		classes := nscClasses(cfgs)
		cores := cl.NumCores()
		cf := ClusterFit{Cluster: cl.Name, Cores: cores, Fingerprint: pusch.ArchFingerprint(cl)}
		for s, st := range pusch.Stages {
			for _, nsc := range classes {
				var X [][]float64
				var y []float64
				for i, cfg := range cfgs {
					if cfg.NSC != nsc {
						continue
					}
					fx := features(cfg, cores)[s]
					X = append(X, slices.Clone(fx.terms()))
					y = append(y, float64(walls[i][st].Wall)/reps(cfg)[s])
				}
				if need := features(cfgs[0], cores)[s].n; len(X) < need {
					return nil, fmt.Errorf("timing: %d fit points for %s NSC=%d on %s, need at least %d",
						len(X), stageKeys[st], nsc, cl.Name, need)
				}
				h := fitHinge(X, y)
				cf.Stages = append(cf.Stages, StageFit{Stage: stageKeys[st], NSC: nsc, J0: h.J0, Beta: h.Beta})
			}
		}
		cal.Clusters = append(cal.Clusters, cf)
	}
	return cal, nil
}

// Calibrate fits the default fit grid on the given clusters.
func Calibrate(clusters []*arch.Config, budget float64) (*Calibration, error) {
	return CalibrateGrid(clusters, FitGrid(), budget)
}

// nscClasses returns the distinct NSC values of the measured grid, in
// increasing order.
func nscClasses(cfgs []pusch.ChainConfig) []int {
	seen := map[int]bool{}
	var out []int
	for _, c := range cfgs {
		if !seen[c.NSC] {
			seen[c.NSC] = true
			out = append(out, c.NSC)
		}
	}
	sort.Ints(out)
	return out
}

// PointError is one holdout point's outcome: predicted versus measured
// total slot cycles and the signed relative error.
type PointError struct {
	Point     GridPoint
	Predicted int64
	Measured  int64
	RelErr    float64
}

// ErrorStats summarizes held-out relative total-cycle error: quantiles
// of |RelErr| over the evaluated points.
type ErrorStats struct {
	Points        []PointError
	P50, P95, Max float64
}

// Evaluate measures every feasible point of the grid cycle-accurately
// on cluster, predicts it with the model, and returns the error
// statistics. Infeasible points are skipped, exactly as in
// calibration.
func (m *Model) Evaluate(cluster *arch.Config, pts []GridPoint) (ErrorStats, error) {
	pool := engine.NewMachines()
	var stats ErrorStats
	var abs []float64
	for _, pt := range pts {
		cfg := gridConfig(cluster, pt)
		walls, ok := tryRun(pool, cfg)
		if !ok {
			continue
		}
		rec, err := m.Predict(cfg)
		if err != nil {
			return stats, fmt.Errorf("timing: evaluating %+v on %s: %w", pt, cluster.Name, err)
		}
		var meas int64
		for _, st := range pusch.Stages {
			meas += walls[st].Wall
		}
		pe := PointError{Point: pt, Predicted: rec.TotalCycles, Measured: meas}
		if meas > 0 {
			pe.RelErr = float64(rec.TotalCycles-meas) / float64(meas)
		}
		stats.Points = append(stats.Points, pe)
		abs = append(abs, math.Abs(pe.RelErr))
	}
	if len(abs) == 0 {
		return stats, fmt.Errorf("timing: no feasible holdout points on %s", cluster.Name)
	}
	sort.Float64s(abs)
	stats.P50 = abs[len(abs)/2]
	stats.P95 = abs[int(float64(len(abs))*0.95)]
	stats.Max = abs[len(abs)-1]
	return stats, nil
}
