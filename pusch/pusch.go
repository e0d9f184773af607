// Package pusch is the public entry point to the PUSCH lower-PHY
// reproduction: the Table I / Fig. 3 complexity model, the end-to-end
// functional receive chain on the cluster simulator with its stage
// layouts, fading channels, analytic timing and span tracing, the
// Fig. 9c use-case runner, and the campaign engine that sweeps families
// of scenarios in parallel.
package pusch

import (
	"repro/internal/arch"
	"repro/internal/pusch"
)

type (
	// Dims captures a PUSCH allocation's air-interface dimensions.
	Dims = pusch.Dims
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
	// Layout maps the chain stages onto core partitions: the spatial-
	// pipelining axis. The zero value is the sequential layout.
	Layout = pusch.Layout
)

// ParseLayout resolves a layout name ("sequential", "pipe",
// "pipe/f64/b32/d64") against a cluster.
func ParseLayout(name string, cluster *arch.Config) (Layout, error) {
	return pusch.ParseLayout(name, cluster)
}

// Chain stages (Stages lists all five in processing order).
const (
	StageOFDM = pusch.StageOFDM
	StageBF   = pusch.StageBF
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

// RunUseCase executes the Fig. 9c slot-budget experiment.
func RunUseCase(cfg UseCaseConfig) (*UseCaseResult, error) { return pusch.RunUseCase(cfg) }

// DefaultUseCase returns the paper's TeraPool use-case configuration.
func DefaultUseCase() UseCaseConfig { return pusch.DefaultUseCase() }
