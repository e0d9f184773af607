// Package pusch ties the kernels into the PUSCH lower-PHY receive chain
// of the paper: the complexity model of Section II (Table I, Fig. 3),
// the end-to-end functional chain (FFT -> beamforming -> channel and
// noise estimation -> MIMO detection) running on the cluster simulator,
// and the Fig. 9c use-case runner. Chain execution is layout-driven
// (Layout): the sequential layout reproduces the paper's
// stage-after-stage schedule on the whole cluster, while pipelined
// layouts partition the cores among concurrent stages and overlap
// consecutive OFDM symbols — the spatial pipelining of the SDR
// follow-up papers.
//
// A chain run's timing path is selected by ChainConfig.Timing
// (TimingMode): the zero value executes the slot on the cycle-level
// engine and measures every cycle, while TimingAnalytic marks the
// configuration for the calibrated closed-form cycle model
// (internal/timing) — the engine refuses such configurations, they
// never derive a cache key, and the orchestration layers (campaign,
// sched) resolve them through a loaded timing model instead. The
// closed-form complexity model in this file is the analytic model's
// structural ancestor: both express per-stage work as arithmetic over
// the allocation's dimensions, but the calibrated model predicts
// cluster cycles, not operation counts. docs/TIMING.md is the
// specification.
package pusch

import (
	"fmt"
	"math"
	"strings"
)

// Dims captures the air-interface dimensions of one PUSCH allocation.
type Dims struct {
	NSC    int // allocated subcarriers (3276 for 100 MHz at 30 kHz SCS)
	NSymb  int // OFDM symbols per slot (14)
	NPilot int // pilot symbols per slot (2, block-type arrangement)
	NR     int // receive antennas (64)
	NB     int // beams (32)
	NL     int // UEs transmitting on the same resources
}

// UseCaseDims returns the paper's Section II reference configuration.
func UseCaseDims(nl int) Dims {
	return Dims{NSC: 3276, NSymb: 14, NPilot: 2, NR: 64, NB: 32, NL: nl}
}

// Validate checks the dimensions are physically meaningful.
func (d Dims) Validate() error {
	switch {
	case d.NSC <= 0 || d.NSymb <= 0 || d.NR <= 0 || d.NB <= 0 || d.NL <= 0:
		return fmt.Errorf("pusch: dimensions must be positive: %+v", d)
	case d.NPilot < 0 || d.NPilot >= d.NSymb:
		return fmt.Errorf("pusch: %d pilot symbols out of %d total", d.NPilot, d.NSymb)
	}
	return nil
}

// Stage identifies one step of the receive chain.
type Stage string

// Chain stages in processing order (Fig. 1 of the paper).
const (
	StageOFDM Stage = "OFDM demodulation (FFT)"
	StageBF   Stage = "Beamforming (MMM)"
	StageCHE  Stage = "Channel estimation (element-wise division)"
	StageNE   Stage = "Noise estimation (autocorrelation)"
	StageMIMO Stage = "MIMO detection (Cholesky + triangular solves)"
)

// Stages lists the chain in order.
var Stages = []Stage{StageOFDM, StageBF, StageCHE, StageNE, StageMIMO}

// MACs returns the complex multiply-accumulate counts of Table I for one
// slot.
func (d Dims) MACs() map[Stage]float64 {
	data := float64(d.NSymb - d.NPilot)
	nsc := float64(d.NSC)
	return map[Stage]float64{
		StageOFDM: float64(d.NSymb) * float64(d.NR) * nsc * math.Log2(nsc),
		StageBF:   float64(d.NSymb) * nsc * float64(d.NR) * float64(d.NB),
		StageCHE:  float64(d.NPilot) * nsc * float64(d.NB) * float64(d.NL),
		StageNE:   float64(d.NPilot) * nsc * 2 * float64(d.NB) * float64(d.NL),
		StageMIMO: data * nsc * (math.Pow(float64(d.NL), 3)/3 + 2*float64(d.NL)*float64(d.NL)),
	}
}

// PayloadBits returns the information payload one slot carries at these
// dimensions: every data symbol's allocated subcarriers across all
// spatial layers, at bitsPerSymbol bits per constellation point. This is
// the numerator of the slot-throughput figure the SDR follow-up papers
// report in Gb/s.
func (d Dims) PayloadBits(bitsPerSymbol int) int64 {
	return int64(d.NSymb-d.NPilot) * int64(d.NSC) * int64(d.NL) * int64(bitsPerSymbol)
}

// TotalMACs sums Table I over the stages.
func (d Dims) TotalMACs() float64 {
	var t float64
	for _, v := range d.MACs() {
		t += v
	}
	return t
}

// Shares returns each stage's fraction of the slot's total MACs: the
// quantity Fig. 3 plots against the number of UEs.
func (d Dims) Shares() map[Stage]float64 {
	macs := d.MACs()
	total := d.TotalMACs()
	out := make(map[Stage]float64, len(macs))
	for s, v := range macs {
		out[s] = v / total
	}
	return out
}

// TableI renders the Table I rows (kernel, formula, MACs for these dims).
func (d Dims) TableI() string {
	macs := d.MACs()
	rows := []struct {
		stage   Stage
		kernel  string
		formula string
	}{
		{StageOFDM, "Fast Fourier transform", "Nsymb*NR*NSC*log2(NSC)"},
		{StageBF, "Matrix-matrix multiplication", "Nsymb*NSC*NR*NB"},
		{StageMIMO, "Cholesky decomposition + solves", "Ndata*NSC*(NL^3/3 + 2*NL^2)"},
		{StageCHE, "Element-wise division", "Npilot*NSC*NB*NL"},
		{StageNE, "Autocorrelation", "Npilot*NSC*2*NB*NL"},
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-46s %-32s %-30s %14s\n", "PUSCH stage", "Key kernel", "Complex MACs formula", "MACs")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-46s %-32s %-30s %14.3e\n", r.stage, r.kernel, r.formula, macs[r.stage])
	}
	fmt.Fprintf(&sb, "%-46s %-32s %-30s %14.3e\n", "Total", "", "", d.TotalMACs())
	return sb.String()
}

// Fig3Table renders the per-stage MAC shares for a sweep of UE counts,
// reproducing Fig. 3. Each column's share map is computed once and
// read by every stage row.
func Fig3Table(nls []int) string {
	shares := make([]map[Stage]float64, len(nls))
	for i, nl := range nls {
		shares[i] = UseCaseDims(nl).Shares()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-46s", "Stage \\ UEs")
	for _, nl := range nls {
		fmt.Fprintf(&sb, " %7d", nl)
	}
	sb.WriteByte('\n')
	for _, st := range Stages {
		fmt.Fprintf(&sb, "%-46s", st)
		for i := range nls {
			fmt.Fprintf(&sb, " %6.1f%%", shares[i][st]*100)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
