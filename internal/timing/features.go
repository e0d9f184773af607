package timing

import "repro/internal/pusch"

// The per-repetition feature bases below mirror — in closed form — the
// work-distribution arithmetic of the kernels' own job planners. They
// are evaluated on normalized configurations only (pusch.
// ChainConfig.Normalized), so the divisibility and range invariants the
// planners rely on (NSC a power of four, NR and NB multiples of four,
// lanes <= cores) already hold.

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// fftBatch mirrors the FFT planner's batching choice: one NSC-point
// folded radix-4 FFT occupies NSC/16 lanes, the cluster fits
// cores/(NSC/16) concurrent transforms, and the NR transforms are run
// in batch rounds sized to divide NR evenly.
func fftBatch(nsc, nr, cores int) int {
	lanes := nsc / 16
	maxJobs := cores / lanes
	if maxJobs == 0 {
		return 0
	}
	batch := ceilDiv(nr, maxJobs)
	for nr%batch != 0 {
		batch++
	}
	return batch
}

// bfMaxWindows mirrors the beamforming MMM's 4x4-window partitioning
// (kernels/mmm appendRowBlocks/appendColBlocks): the NSC x NB output
// splits into (NSC/4) x (NB/4) windows dealt across the lanes, and the
// stage's critical path is the most-loaded lane's window count. With
// fewer lanes than row blocks, lane 0 takes the most row blocks and
// every column block of each. Otherwise each row block's column blocks
// are dealt across the lanes/blocksM (or one more) lanes sharing it,
// and a lane of the smaller share is the busiest.
func bfMaxWindows(nsc, nb, lanes int) int {
	blocksM, blocksP := nsc/4, nb/4
	if lanes < blocksM {
		return ceilDiv(blocksM, lanes) * blocksP
	}
	return ceilDiv(blocksP, lanes/blocksM)
}

// numStages is len(pusch.Stages): reps and features return one entry
// per stage, in that order.
const numStages = 5

// maxTerms is the longest stage basis, MIMO's.
const maxTerms = 7

// basis is one stage's per-repetition feature vector, held in a
// fixed-size array so a prediction builds all five without allocating.
type basis struct {
	n int
	v [maxTerms]float64
}

// terms returns the basis as a slice of its own array.
func (b *basis) terms() []float64 { return b.v[:b.n] }

// reps returns how many times each stage's job is issued per slot: the
// repetition count that multiplies the per-repetition hinge. OFDM and
// beamforming run once per OFDM symbol, channel estimation once per
// pilot symbol, the noise combine once per slot, and MIMO detection
// once per data symbol.
func reps(cfg pusch.ChainConfig) [numStages]float64 {
	return [numStages]float64{
		float64(cfg.NSymb),              // OFDM
		float64(cfg.NSymb),              // BF
		float64(cfg.NPilot),             // CHE
		1,                               // NE
		float64(cfg.NSymb - cfg.NPilot), // MIMO
	}
}

// features returns each stage's per-repetition work basis: the terms
// whose calibrated linear combination is the work arm of the hinge.
// NSC only takes the three values of the calibration classes (64, 256,
// 1024 — the functional path is memory-bound beyond that), so
// NSC-dependent occupancy and contention effects fold into the
// per-class coefficients instead of appearing as terms.
//
//   - OFDM: linear in the FFT batch depth (rounds of concurrent
//     transforms).
//   - BF: the busiest lane's 4x4-window count, each window an NR-deep
//     MAC reduction.
//   - CHE and NE: per-lane work over ceil(NSC/cores) subcarriers times
//     NB beams, plus the serial lane-0 reduction folded into the class
//     constant.
//   - MIMO: the per-subcarrier detect decomposed by its loop nests —
//     Gramian (NL^2 * NB), matched filter (NL * NB), Cholesky (NL^3),
//     triangular solves (NL^2) — on the busiest lane's ceil(NSC/cores)
//     subcarriers.
func features(cfg pusch.ChainConfig, cores int) (x [numStages]basis) {
	nsc, nr, nb, nl := cfg.NSC, cfg.NR, cfg.NB, cfg.NL
	batch := float64(fftBatch(nsc, nr, cores))
	wmax := float64(bfMaxWindows(nsc, nb, cores))
	spc := float64(ceilDiv(nsc, cores))
	fnl, fnb, fnr := float64(nl), float64(nb), float64(nr)
	// In pusch.Stages order: OFDM, BF, CHE, NE, MIMO.
	x[0] = basis{2, [maxTerms]float64{batch, 1}}
	x[1] = basis{3, [maxTerms]float64{wmax * fnr, wmax, 1}}
	x[2] = basis{3, [maxTerms]float64{spc * fnb, spc, 1}}
	x[3] = basis{3, [maxTerms]float64{spc * fnb, spc, 1}}
	x[4] = basis{7, [maxTerms]float64{spc * fnl * fnl * fnb, spc * fnl * fnb, spc * fnl * fnl * fnl, spc * fnl * fnl, spc * fnb, spc, 1}}
	return x
}
