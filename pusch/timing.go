package pusch

import (
	"repro/internal/pusch"
	"repro/internal/timing"
)

// Analytic timing re-exports: the calibrated closed-form cycle model
// that predicts a chain slot's cycle counts from its scenario
// coordinate without running the engine. See internal/timing for the
// model and docs/TIMING.md for the full specification.
type (
	// TimingMode selects how a chain run's cycle counts are produced:
	// the zero value is cycle-accurate (the engine), TimingAnalytic is
	// the calibrated model.
	TimingMode = pusch.TimingMode
	// TimingModel is a loaded calibration, indexed for prediction;
	// hand one to Runner.Model to resolve analytic-timing scenarios.
	// Immutable and safe for concurrent use.
	TimingModel = timing.Model
)

// TimingAnalytic predicts slot timing with the calibrated model.
const TimingAnalytic = pusch.TimingAnalytic

// DefaultCalibrationPath is the committed calibration artifact,
// relative to the repository root.
const DefaultCalibrationPath = timing.DefaultPath

// ParseTimingMode resolves the -timing flag spellings ("",
// "cycle-accurate", "analytic").
func ParseTimingMode(name string) (TimingMode, error) {
	return pusch.ParseTimingMode(name)
}

// LoadTimingModel reads a calibration artifact and indexes it for
// prediction.
func LoadTimingModel(path string) (*TimingModel, error) {
	return timing.Load(path)
}
