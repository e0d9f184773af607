package pusch

import (
	"fmt"
	"strings"
)

// TimingMode selects how a chain run's cycle counts are produced.
//
// The zero value is cycle-accurate: the slot executes on the
// instruction-level engine and every cycle is measured. TimingAnalytic
// instead evaluates the calibrated closed-form cycle model
// (internal/timing) at the slot's scenario coordinate — no engine run,
// no payload, timing only. Analytic records are stamped
// (SlotRecord.Timing = "analytic") so they can never enter the
// service-time cache or a benchgate baseline.
type TimingMode string

const (
	// TimingCycleAccurate runs the slot on the cycle-level engine
	// (the default; the zero value keeps pre-existing configurations
	// cycle-accurate).
	TimingCycleAccurate TimingMode = ""
	// TimingAnalytic predicts the slot's cycle counts from the
	// calibrated per-stage model without running the engine.
	TimingAnalytic TimingMode = "analytic"
)

// ParseTimingMode resolves the -timing flag spellings. The empty string
// and "cycle"/"cycle-accurate" name the engine path; "analytic" names
// the calibrated model.
func ParseTimingMode(name string) (TimingMode, error) {
	switch strings.ToLower(name) {
	case "", "cycle", "cycle-accurate":
		return TimingCycleAccurate, nil
	case "analytic":
		return TimingAnalytic, nil
	}
	return "", fmt.Errorf("pusch: unknown timing mode %q (want cycle-accurate or analytic)", name)
}

// Normalized returns the configuration with the same defaults applied
// and the same validation performed as a chain run would: the canonical
// scenario coordinate. The analytic timing model (internal/timing)
// predicts from normalized configurations so its inputs agree exactly
// with what the engine would have executed.
func (c ChainConfig) Normalized() (ChainConfig, error) {
	c.setDefaults()
	if err := c.validate(); err != nil {
		return ChainConfig{}, err
	}
	return c, nil
}
