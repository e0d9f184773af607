package fleet

import (
	"strings"
	"testing"

	"repro/internal/sched"
)

// FuzzReadCells checks that a cell config either parses or errors —
// never panics — and that every accepted deployment serves a small
// stub trace, conserving its jobs.
func FuzzReadCells(f *testing.F) {
	f.Add(`[{}]`)
	f.Add(`[{"name": "macro", "cluster": "terapool", "layout": "pipe", "servers": 4}, {"timing": "analytic", "queue": -1}]`)
	f.Add(`[{"servers": 100000000000000}]`)
	f.Add(`[{"servers": -3, "queue": 1000000}]`)
	f.Add(`[{"layout": "pipe/f64/b32/d64"}]`)
	f.Fuzz(func(t *testing.T, config string) {
		cells, err := ReadCells(strings.NewReader(config), Cell{Servers: 2})
		if err != nil {
			return
		}
		jobs := []sched.Job{stubJob("a", 0, 100), stubUEJob("b", 0, 100, 1), stubJob("c", 50, 100)}
		for _, policy := range Policies() {
			_, sum := stubFleet(Config{Cells: cells, Policy: policy, Workers: 1}).Serve(jobs)
			if sum.Served+sum.Dropped+sum.Failed != len(jobs) {
				t.Fatalf("%s: %d+%d+%d outcomes for %d jobs", policy, sum.Served, sum.Dropped, sum.Failed, len(jobs))
			}
		}
	})
}
