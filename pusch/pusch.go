// Package pusch is the public entry point to the PUSCH lower-PHY
// reproduction: the Table I / Fig. 3 complexity model, the end-to-end
// functional receive chain on the cluster simulator (as a whole or as
// its three separately callable stages), the Fig. 9c use-case runner,
// and the campaign engine that sweeps families of scenarios in parallel.
package pusch

import (
	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/report"
)

type (
	// Dims captures a PUSCH allocation's air-interface dimensions.
	Dims = pusch.Dims
	// Stage identifies one chain step.
	Stage = pusch.Stage
	// ChainConfig parameterizes an end-to-end functional run.
	ChainConfig = pusch.ChainConfig
	// ChainResult reports link quality and per-stage timing.
	ChainResult = pusch.ChainResult
	// UseCaseConfig parameterizes the Fig. 9c experiment.
	UseCaseConfig = pusch.UseCaseConfig
	// UseCaseResult is the Fig. 9c cycle budget.
	UseCaseResult = pusch.UseCaseResult
	// KernelTiming is one kernel's share of the use-case budget.
	KernelTiming = pusch.KernelTiming
	// SlotTX is the host-side transmit stage of one slot.
	SlotTX = pusch.SlotTX
	// Pipeline is the receive-side kernel stage, run symbol by symbol.
	Pipeline = pusch.Pipeline
	// LinkMetrics is the host-side scoring stage.
	LinkMetrics = pusch.LinkMetrics
	// SlotRecord is the typed telemetry record of one slot-level run.
	SlotRecord = report.SlotRecord
	// Layout maps the chain stages onto core partitions: the spatial-
	// pipelining axis. The zero value is the sequential layout.
	Layout = pusch.Layout
	// CoreSet is an explicit, ordered set of simulator core ids.
	CoreSet = pusch.CoreSet
)

// Sequential is the zero-value layout: every stage on all cores, one
// symbol at a time, cycle-identical to the pre-layout chain.
var Sequential = pusch.Sequential

// PipelinedSplit builds the canonical three-way pipelined layout: f
// cores to the FFT, b to beamforming, d to the shared detection
// partition (channel estimation, noise combine, MIMO).
func PipelinedSplit(cluster *arch.Config, f, b, d int) (Layout, error) {
	return pusch.PipelinedSplit(cluster, f, b, d)
}

// StockPipelined returns the stock partitioned layout for a cluster.
func StockPipelined(cluster *arch.Config) Layout { return pusch.StockPipelined(cluster) }

// ParseLayout resolves a layout name ("sequential", "pipe",
// "pipe/f64/b32/d64") against a cluster.
func ParseLayout(name string, cluster *arch.Config) (Layout, error) {
	return pusch.ParseLayout(name, cluster)
}

// Chain stages in processing order.
const (
	StageOFDM = pusch.StageOFDM
	StageBF   = pusch.StageBF
	StageCHE  = pusch.StageCHE
	StageNE   = pusch.StageNE
	StageMIMO = pusch.StageMIMO
)

// Stages lists the chain in order.
var Stages = pusch.Stages

// UseCaseDims returns the paper's Section II reference dimensions.
func UseCaseDims(nl int) Dims { return pusch.UseCaseDims(nl) }

// Fig3Table renders stage MAC shares across UE counts (Fig. 3).
func Fig3Table(nls []int) string { return pusch.Fig3Table(nls) }

// RunChain executes the full functional receive chain.
func RunChain(cfg ChainConfig) (*ChainResult, error) { return pusch.RunChain(cfg) }

// RunChainOn executes the receive chain on a caller-supplied (fresh or
// Reset) machine, enabling machine reuse across runs.
func RunChainOn(m *engine.Machine, cfg ChainConfig) (*ChainResult, error) {
	return pusch.RunChainOn(m, cfg)
}

// RunChainRecordOn executes the chain on a caller-supplied (fresh or
// Reset) machine and returns its typed slot record.
func RunChainRecordOn(m *engine.Machine, cfg ChainConfig) (SlotRecord, error) {
	return pusch.RunChainRecordOn(m, cfg)
}

// RunUseCase executes the Fig. 9c slot-budget experiment.
func RunUseCase(cfg UseCaseConfig) (*UseCaseResult, error) { return pusch.RunUseCase(cfg) }

// RunUseCaseOn executes the Fig. 9c experiment with machines drawn from
// the given pool (nil builds them fresh).
func RunUseCaseOn(pool *engine.Machines, cfg UseCaseConfig) (*UseCaseResult, error) {
	return pusch.RunUseCaseOn(pool, cfg)
}

// DefaultUseCase returns the paper's TeraPool use-case configuration.
func DefaultUseCase() UseCaseConfig { return pusch.DefaultUseCase() }
