package pusch

import (
	"repro/internal/pusch"
	"repro/internal/timing"
)

// Analytic timing re-exports: the calibrated closed-form cycle model
// that predicts a chain slot's cycle counts from its scenario
// coordinate without running the engine. See internal/timing for the
// model and docs/TIMING.md for the full specification.

// TimingModel is a loaded calibration, indexed for prediction; hand
// one to Runner.Model to resolve analytic-timing scenarios. Immutable
// and safe for concurrent use.
type TimingModel = timing.Model

// TimingAnalytic (ChainConfig.Timing) predicts slot timing with the
// calibrated model; the zero value runs the cycle-accurate engine.
const TimingAnalytic = pusch.TimingAnalytic
