package fleet

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/campaign"
	"repro/internal/sched"
)

// Policy names a cell-level load-balancing discipline. Every policy is
// deterministic: the routed cell is a pure function of the trace and
// the fleet configuration, never of measurement order or worker count.
type Policy string

const (
	// RoundRobin rotates arrivals over the cells in arrival order,
	// blind to load and channel state.
	RoundRobin Policy = "round-robin"
	// LeastQueue routes each arrival to the cell with the smallest
	// backlog (busy servers plus queued jobs) at the arrival instant,
	// lowest cell index on ties.
	LeastQueue Policy = "least-queue"
	// SINRAware routes each mobile UE to the admissible cell with the
	// highest effective SINR at the arrival's channel time (see
	// CellGainDB), lowest cell index on ties — the policy under which
	// UEs hand over as their per-cell gains cross.
	SINRAware Policy = "sinr"
)

// Policies lists every load-balancing policy, in flag order.
func Policies() []Policy {
	return []Policy{RoundRobin, LeastQueue, SINRAware}
}

// ParsePolicy resolves the -balance flag spellings. The empty string
// defaults to round-robin, the neutral policy that keeps a
// single-cell fleet indistinguishable from the plain scheduler.
func ParsePolicy(name string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "rr", "roundrobin", "round-robin":
		return RoundRobin, nil
	case "least", "leastqueue", "least-queue":
		return LeastQueue, nil
	case "sinr", "sinr-aware":
		return SINRAware, nil
	}
	return "", fmt.Errorf("fleet: unknown balance policy %q (want round-robin, least-queue, or sinr)", name)
}

// route builds the policy's routing function over n cells. Routing reads
// only the replay state and the job, so the routed cell never depends on
// measurement order or worker count.
func (f *Fleet) route(n int) sched.Route {
	switch f.Cfg.Policy {
	case LeastQueue:
		return func(r *sched.Replay, _ int, job *sched.Job) int {
			best, bestLoad := 0, math.MaxInt
			for c := 0; c < n; c++ {
				if load := r.Backlog(c, job.Arrival); load < bestLoad {
					best, bestLoad = c, load
				}
			}
			return best
		}
	case SINRAware:
		base := f.Cfg.Seed
		if base == 0 {
			base = 1
		}
		return func(r *sched.Replay, pos int, job *sched.Job) int {
			// The UE's identity is its fading seed; legacy jobs fall back
			// to their (stamped) payload seed so they still route
			// deterministically. Channel time is the UE's own clock.
			ueSeed := job.Chain.Channel.Seed
			if ueSeed == 0 {
				if ueSeed = job.Chain.Seed; ueSeed == 0 {
					ueSeed = campaign.DeriveSeed(base, pos)
				}
			}
			tMs := job.Chain.Channel.TimeMs
			if tMs == 0 {
				tMs = float64(job.Arrival) / sched.CyclesPerMs
			}
			best, bestSINR, found := 0, 0.0, false
			for c := 0; c < n; c++ {
				// Only admissible cells — classes whose measurement of this
				// job succeeded — compete; if none did, cell 0 reports the
				// failure.
				if r.Failed(c, pos) {
					continue
				}
				sinr := EffectiveSINRdB(job.Chain.SNRdB, ueSeed, c, tMs)
				if !found || sinr > bestSINR {
					best, bestSINR, found = c, sinr, true
				}
			}
			return best
		}
	default: // RoundRobin: the route runs once per arrival, in order
		return func(_ *sched.Replay, pos int, _ *sched.Job) int { return pos % n }
	}
}
