package sched_test

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/pusch"
	"repro/internal/sched"
	"repro/internal/waveform"
)

// ExampleScheduler serves a worst-case burst through the slot-traffic
// scheduler: four slots arrive simultaneously at one server with a
// one-slot queue, so exactly two are admitted and two are dropped —
// independent of the measured service times, hence stable output.
func ExampleScheduler() {
	base := pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 4, NB: 4, NL: 1,
		NSymb: 3, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
	}
	var jobs []sched.Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, sched.Job{
			Name:    fmt.Sprintf("slot-%d", i),
			Arrival: 0,
			Chain:   base,
		})
	}
	s := &sched.Scheduler{Cfg: sched.Config{Servers: 1, QueueDepth: 1}}
	results, sum := s.Serve(jobs)
	for _, r := range results {
		fmt.Printf("%s: %s\n", r.Name, r.Outcome)
	}
	fmt.Printf("served %d, dropped %d; queued slot waited exactly one service time: %v\n",
		sum.Served, sum.Dropped, results[1].Record.WaitCycles == results[0].Record.LatencyCycles)
	// Output:
	// slot-0: served
	// slot-1: served
	// slot-2: dropped
	// slot-3: dropped
	// served 2, dropped 2; queued slot waited exactly one service time: true
}
