package fleet

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/channel"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/timecache"
)

const windowGoldenPath = "testdata/window_golden.txt"

// windowTraceJobs spans three 1024-position serving windows plus a
// remainder, so queued jobs, the reorder span and payload seeding all
// cross window boundaries.
const windowTraceJobs = 3*1024 + 345

// windowTrace is the window golden's offered traffic: bursts of 48
// slots 20 ms apart, one every 700 cycles with 3000-8000-cycle service,
// so every configuration queues and drops and each window boundary
// falls inside a burst. Two of every three slots belong to one of eight
// mobile TDL-B UEs; odd jobs leave their payload seed to the server.
// Job 1500 asks for analytic timing with no model loaded and fails.
func windowTrace() []sched.Job {
	jobs := make([]sched.Job, windowTraceJobs)
	for i := range jobs {
		arrival := int64(i/48)*20*sched.CyclesPerMs + int64(i%48)*700
		cfg := tinyChain()
		if i%2 == 0 {
			cfg.Seed = uint64(5000 + i)
		}
		if i%3 != 2 {
			cfg.Channel = channel.Spec{
				Profile:   channel.TDLB,
				DopplerHz: 30,
				Seed:      uint64(1 + i%8),
				TimeMs:    float64(arrival) / sched.CyclesPerMs,
			}
		}
		if i == 1500 {
			cfg.Timing = pusch.TimingAnalytic
		}
		jobs[i] = sched.Job{Name: fmt.Sprintf("w%04d", i), Arrival: arrival, Chain: cfg}
	}
	return jobs
}

// windowCache stubs every cycle-accurate job's measurement with a
// synthetic record under the coordinate the server resolves: unpinned
// jobs carry the payload seed derived from serve seed 1 and their
// arrival-order position (the trace is already in arrival order).
func windowCache(jobs []sched.Job) *timecache.Cache {
	cache := timecache.New(0)
	for i, j := range jobs {
		cfg := j.Chain
		if cfg.Seed == 0 {
			cfg.Seed = campaign.DeriveSeed(1, i)
		}
		key, err := cfg.CacheKey()
		if err != nil {
			continue // the analytic job: no coordinate, fails at dispatch
		}
		cache.Add(key, report.SlotRecord{
			Kind:        "chain",
			Cluster:     "mempool",
			TotalCycles: int64(3000 + 1000*(i*7%6)),
			PayloadBits: int64(1000 + 10*i),
		})
	}
	return cache
}

// TestServeWindowGolden pins the output bytes of a trace longer than
// one serving window: the SHA-256 of the JSONL stream and the
// Prometheus exposition through the scheduler and through 3-cell fleets
// under each policy, at 1 and 4 measurement workers. Regenerate
// deliberately with `go test ./internal/fleet -run TestServeWindowGolden
// -update-golden`.
func TestServeWindowGolden(t *testing.T) {
	jobs := windowTrace()
	cache := windowCache(jobs)
	serve := func(name string, reg *obs.Registry, write func(*bytes.Buffer) (report.ServiceSummary, int, error)) string {
		var stream, prom bytes.Buffer
		sum, handovers, err := write(&stream)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := reg.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		// The trace must exercise what the golden claims to cover.
		if sum.Host.CacheMisses != 0 {
			t.Fatalf("%s: %d cache misses — the stub must serve every measurement", name, sum.Host.CacheMisses)
		}
		if sum.Failed != 1 || sum.Dropped == 0 || sum.WaitP99Cycles == 0 || sum.Served == 0 {
			t.Fatalf("%s: served %d, dropped %d, failed %d, wait p99 %d; want queueing, drops and one failure",
				name, sum.Served, sum.Dropped, sum.Failed, sum.WaitP99Cycles)
		}
		if strings.HasSuffix(name, string(SINRAware)) && handovers == 0 {
			t.Fatalf("%s: no handovers", name)
		}
		return fmt.Sprintf("%s.jsonl %s\n%s.prom %s\n", name, digest(stream.Bytes()), name, digest(prom.Bytes()))
	}

	var got strings.Builder
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		s := &sched.Scheduler{Cfg: sched.Config{Servers: 2, QueueDepth: 2, Workers: workers, Seed: 1, Cache: cache, Metrics: reg}}
		got.WriteString(serve(fmt.Sprintf("sched-w%d", workers), reg, func(buf *bytes.Buffer) (report.ServiceSummary, int, error) {
			sum, err := s.WriteJSONL(buf, jobs)
			return sum, 0, err
		}))
		for _, policy := range Policies() {
			reg := obs.NewRegistry()
			f := &Fleet{Cfg: Config{
				Cells:  Homogeneous(3, Cell{Servers: 2, QueueDepth: 2}),
				Policy: policy, Workers: workers, Seed: 1,
				Cache: cache, Metrics: reg,
			}}
			got.WriteString(serve(fmt.Sprintf("fleet-3-%s-w%d", policy, workers), reg, func(buf *bytes.Buffer) (report.ServiceSummary, int, error) {
				fsum, err := f.WriteJSONL(buf, jobs)
				sum := report.ServiceSummary{
					Served: fsum.Served, Dropped: fsum.Dropped, Failed: fsum.Failed,
					WaitP99Cycles: fsum.WaitP99Cycles, Host: fsum.Host,
				}
				return sum, fsum.Handovers, err
			}))
		}
	}
	if *updateGolden {
		if err := os.WriteFile(windowGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(windowGoldenPath)
	if err != nil {
		t.Fatalf("reading %s: %v", windowGoldenPath, err)
	}
	if string(want) != got.String() {
		t.Errorf("window serve digests differ from %s:\n--- got\n%s--- pinned\n%s", windowGoldenPath, got.String(), want)
	}
}
