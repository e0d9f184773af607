package engine

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
)

// genWarmJobs draws 1-3 jobs over disjoint random core sets, each with
// 1-4 phases running random per-lane programs. Footprints of 20-40
// lines overflow the 64-line tile cache within a few phases, so LRU
// eviction matters; some phases leave Kernel empty or Lines zero, so the
// defaults matter too. A small kernel pool lets phases share code.
func genWarmJobs(rng *rand.Rand, cfg *arch.Config, prefix string) []Job {
	limit := (cfg.BankWords - 1) * cfg.NumBanks() // clear of the barrier rows
	perm := rng.Perm(cfg.NumCores())
	perm = perm[:1+rng.Intn(len(perm))]
	jobs := make([]Job, 1+rng.Intn(min(3, len(perm))))
	for ji := range jobs {
		n := 1 + rng.Intn(len(perm)-(len(jobs)-ji-1)) // a core for every later job
		cores := perm[:n]
		perm = perm[n:]
		progs := make([][]bulkOp, n)
		for i := range progs {
			progs[i] = genOps(rng, limit)
		}
		phases := make([]Phase, 1+rng.Intn(4))
		for pi := range phases {
			ph := Phase{
				Name:       fmt.Sprintf("p%d", pi),
				FetchEvery: rng.Intn(12),
				Work:       progWork(progs, rng.Intn(2) == 0),
			}
			if rng.Intn(3) > 0 {
				ph.Kernel = fmt.Sprintf("k%d", rng.Intn(4))
			}
			if rng.Intn(4) > 0 {
				ph.Lines = 20 + rng.Intn(21)
			}
			phases[pi] = ph
		}
		jobs[ji] = Job{Name: fmt.Sprintf("%s%d", prefix, ji), Cores: cores, Phases: phases}
	}
	return jobs
}

// TestRunWarmMatchesColdPass holds RunWarm to what it replaces: a cold
// Run, a ClusterBarrier and a timed Run on an identically prepared
// machine. Both must give the same report and the same window and Stats
// on every core, and leave every tile's instruction cache and the phase
// counter in the same state.
func TestRunWarmMatchesColdPass(t *testing.T) {
	cfgs := []*arch.Config{
		propCfg("prop-2g", 2, 2, 2, 2), // 8 cores over 4 tiles
		propCfg("prop-3g", 3, 2, 3, 3), // 18 cores, 54 banks
		propCfg("prop-1g", 1, 4, 4, 1), // 16 cores over 4 tiles, 16 banks
	}
	for _, cfg := range cfgs {
		for _, rotate := range []bool{false, true} {
			rng := rand.New(rand.NewSource(11))
			for cas := 0; cas < 16; cas++ {
				where := fmt.Sprintf("%s rotate=%v case %d", cfg.Name, rotate, cas)
				prelude := genWarmJobs(rng, cfg, "pre")
				jobs := genWarmJobs(rng, cfg, "job")
				// The prelude leaves the cores at different times and the
				// caches partly filled before the measurement starts.
				prepare := func() *Machine {
					m := NewMachine(cfg)
					m.RotatePriority = rotate
					if err := m.Run(prelude...); err != nil {
						t.Fatal(err)
					}
					return m
				}
				cold := prepare()
				if err := cold.Run(jobs...); err != nil {
					t.Fatal(err)
				}
				cold.ClusterBarrier()
				mark := cold.Mark()
				if err := cold.Run(jobs...); err != nil {
					t.Fatal(err)
				}

				warm := prepare()
				got, err := warm.RunWarm("w", nil, jobs...)
				if err != nil {
					t.Fatal(err)
				}
				if want := cold.ReportSince(mark, "w", nil); got != want {
					t.Fatalf("%s: report\n got %+v\nwant %+v", where, got, want)
				}
				if warm.phaseCounter != cold.phaseCounter {
					t.Fatalf("%s: phase counter %d, want %d", where, warm.phaseCounter, cold.phaseCounter)
				}
				for tl := range cold.icache {
					w, c := &warm.icache[tl], &cold.icache[tl]
					if !slices.Equal(w.order, c.order) || !maps.Equal(w.resident, c.resident) || w.used != c.used {
						t.Fatalf("%s: tile %d I$ holds %v (%d lines), want %v (%d lines)",
							where, tl, w.order, w.used, c.order, c.used)
					}
				}
				// Every core's window and Stats, idle cores included.
				for core := 0; core < cfg.NumCores(); core++ {
					one := []int{core}
					got, err := prepare().RunWarm("w", one, jobs...)
					if err != nil {
						t.Fatal(err)
					}
					if want := cold.ReportSince(mark, "w", one); got != want {
						t.Fatalf("%s: core %d\n got %+v\nwant %+v", where, core, got, want)
					}
				}
			}
		}
	}
}

// TestRunWarmRejects: invalid core sets and NotBefore holds are errors,
// and nothing runs.
func TestRunWarmRejects(t *testing.T) {
	m := NewMachine(arch.MemPool())
	work := func(p *Proc) { p.Tick(1) }
	bad := []Job{
		{Name: "empty", Phases: []Phase{{Name: "p", Work: work}}},
		{Name: "held", Cores: []int{0}, NotBefore: 10, Phases: []Phase{{Name: "p", Work: work}}},
	}
	for _, job := range bad {
		if _, err := m.RunWarm("w", nil, job); err == nil {
			t.Errorf("job %q accepted", job.Name)
		}
	}
	if m.Cycles() != 0 {
		t.Errorf("rejected jobs advanced the clock to %d", m.Cycles())
	}
}
