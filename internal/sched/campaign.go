package sched

import (
	"repro/internal/campaign"
)

// FromScenarios adapts a campaign scenario family into a slot-traffic
// trace: one job per chain scenario, arriving every spacingCycles
// simulated cycles in scenario order (spacing <= 0 means back-to-back
// arrival at cycle 0, the worst-case burst). The trace stops before an
// arrival would pass cycle 1<<62, like the generators. Scenario names
// carry over into job records, so a served campaign remains
// identifiable line by line.
//
// baseSeed pins payload seeds the way campaign.Runner{Seed: baseSeed}
// would (0 defaults to 1, like the Runner): each unpinned chain
// scenario gets campaign.DeriveSeed(baseSeed, i) at its position i in
// the ORIGINAL family — skipped entries included — so a scenario served
// as a traffic job carries exactly the payload its campaign run had.
//
// Use-case scenarios have no chain to serve and are skipped; the second
// return value counts them.
func FromScenarios(scenarios []campaign.Scenario, spacingCycles int64, baseSeed uint64) ([]Job, int) {
	if spacingCycles < 0 {
		spacingCycles = 0
	}
	if baseSeed == 0 {
		baseSeed = 1
	}
	var jobs []Job
	skipped := 0
	for i, sc := range scenarios {
		if sc.Chain == nil {
			skipped++
			continue
		}
		if spacingCycles > 0 && int64(len(jobs)) > maxArrival/spacingCycles {
			break
		}
		cfg := *sc.Chain
		if cfg.Seed == 0 {
			cfg.Seed = campaign.DeriveSeed(baseSeed, i)
		}
		jobs = append(jobs, Job{
			Name:    sc.Name,
			Arrival: int64(len(jobs)) * spacingCycles,
			Chain:   cfg,
		})
	}
	return jobs, skipped
}
