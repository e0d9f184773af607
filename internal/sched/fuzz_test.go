package sched

import (
	"strings"
	"testing"
)

// FuzzReadJobs checks that a job stream either parses or errors — never
// panics — and that every accepted job's arrival lies in [0, 1<<62].
func FuzzReadJobs(f *testing.F) {
	f.Add(`{"arrival_cycle": 0}`)
	f.Add("# comment\n{\"arrival_cycle\": 1000, \"scheme\": \"64qam\", \"ues\": 2, \"snr_db\": 0}")
	f.Add(`{"arrival_cycle": 9223372036854775000}`)
	f.Add(`{"arrival_cycle": -1}`)
	f.Add(`{"arrival_cycle": 5, "cluster": "terapool", "layout": "pipe", "timing": "analytic"}`)
	f.Add(`{"arrival_cycle": 7, "channel": "tdl-b", "doppler_hz": 30, "channel_seed": 3, "channel_time_ms": 0.5}`)
	f.Add(`{"arrival_cycle": 0, "layout": "pipe/f9223372036854775807/b1/d1"}`)
	f.Fuzz(func(t *testing.T, stream string) {
		jobs, err := ReadJobs(strings.NewReader(stream), tinyChain())
		if err != nil {
			return
		}
		for i, j := range jobs {
			if j.Arrival < 0 || j.Arrival > maxArrival {
				t.Fatalf("job %d accepted with arrival %d outside [0, %d]", i, j.Arrival, int64(maxArrival))
			}
		}
	})
}
