package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/timecache"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the serving digest files in testdata/ from the current serving code")

const goldenPath = "testdata/serve_golden.txt"

// goldenTrace is the serve golden's offered traffic: four bursts 400 ms
// apart, nine slots each, one every 1000 cycles with 3000-8000-cycle
// service — enough to queue and drop on 2 servers with queue depth 1.
// Two of every three slots belong to one of four mobile TDL-B UEs (the
// SINR router moves them between bursts); the rest are legacy-channel.
// Job 13 asks for analytic timing with no model loaded and fails.
func goldenTrace() []sched.Job {
	var jobs []sched.Job
	for b := 0; b < 4; b++ {
		for k := 0; k < 9; k++ {
			i := len(jobs)
			arrival := int64(b)*400*sched.CyclesPerMs + int64(k)*1000
			cfg := tinyChain()
			cfg.Seed = uint64(1000 + i)
			if i%3 != 2 {
				cfg.Channel = channel.Spec{
					Profile:   channel.TDLB,
					DopplerHz: 30,
					Seed:      uint64(1 + i%4),
					TimeMs:    float64(arrival) / sched.CyclesPerMs,
				}
			}
			if i == 13 {
				cfg.Timing = pusch.TimingAnalytic
			}
			jobs = append(jobs, sched.Job{Name: fmt.Sprintf("g%02d", i), Arrival: arrival, Chain: cfg})
		}
	}
	return jobs
}

// goldenCache stubs the measurement through the service-time cache: every
// cycle-accurate job's coordinate is pre-seeded with a synthetic record,
// so serving never runs the engine and both serving types can be driven
// from outside their packages.
func goldenCache(t *testing.T, jobs []sched.Job) *timecache.Cache {
	t.Helper()
	cache := timecache.New(0)
	for i, j := range jobs {
		key, err := j.Chain.CacheKey()
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

// goldenRun is one serving configuration's output bytes plus the
// counters that prove the trace covers what the golden claims to pin.
type goldenRun struct {
	stream, metrics []byte
	sum             report.ServiceSummary
	handovers       int
}

// serveGolden serves the golden trace through the standalone scheduler
// and through 1- and 3-cell fleets under every policy, each with a fresh
// stub cache and metrics registry.
func serveGolden(t *testing.T) map[string]goldenRun {
	t.Helper()
	jobs := goldenTrace()
	runs := map[string]goldenRun{}
	exposition := func(reg *obs.Registry) []byte {
		var prom bytes.Buffer
		if err := reg.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		return prom.Bytes()
	}

	reg := obs.NewRegistry()
	s := &sched.Scheduler{Cfg: sched.Config{
		Servers: 2, QueueDepth: 1, Workers: 2, Seed: 1,
		Cache: goldenCache(t, jobs), Metrics: reg,
	}}
	var buf bytes.Buffer
	sum, err := s.WriteJSONL(&buf, jobs)
	if err != nil {
		t.Fatal(err)
	}
	runs["sched"] = goldenRun{stream: buf.Bytes(), metrics: exposition(reg), sum: sum}

	for _, cells := range []int{1, 3} {
		for _, policy := range Policies() {
			reg := obs.NewRegistry()
			f := &Fleet{Cfg: Config{
				Cells:  Homogeneous(cells, Cell{Servers: 2, QueueDepth: 1}),
				Policy: policy, Workers: 2, Seed: 1,
				Cache: goldenCache(t, jobs), Metrics: reg,
			}}
			var buf bytes.Buffer
			fsum, err := f.WriteJSONL(&buf, jobs)
			if err != nil {
				t.Fatal(err)
			}
			sum := report.ServiceSummary{
				Served: fsum.Served, Dropped: fsum.Dropped, Failed: fsum.Failed,
				WaitP99Cycles: fsum.WaitP99Cycles, Host: fsum.Host,
			}
			runs[fmt.Sprintf("fleet-%d-%s", cells, policy)] = goldenRun{
				stream: buf.Bytes(), metrics: exposition(reg), sum: sum, handovers: fsum.Handovers,
			}
		}
	}
	return runs
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestServeGolden pins the serving layer's output bytes: the SHA-256 of
// every JSONL stream and every Prometheus exposition of the golden trace
// served through the scheduler and through 1- and 3-cell fleets under
// each policy. Any change to these bytes is a change to the served
// results, never a refactoring detail. Regenerate deliberately with
// `go test ./internal/fleet -run TestServeGolden -update-golden`.
func TestServeGolden(t *testing.T) {
	runs := serveGolden(t)

	// The trace must exercise what the golden claims to cover.
	for name, r := range runs {
		if r.sum.Host.CacheMisses != 0 {
			t.Fatalf("%s: %d cache misses — the stub must serve every measurement", name, r.sum.Host.CacheMisses)
		}
		if r.sum.Failed != 1 || r.sum.Served == 0 {
			t.Fatalf("%s: served %d, failed %d; want served slots and exactly one failure", name, r.sum.Served, r.sum.Failed)
		}
	}
	if r := runs["sched"].sum; r.Dropped == 0 || r.WaitP99Cycles == 0 {
		t.Fatalf("scheduler run must queue and drop: %d dropped, wait p99 %d", r.Dropped, r.WaitP99Cycles)
	}
	if r := runs["fleet-3-sinr"]; r.handovers == 0 {
		t.Fatalf("3-cell SINR run must hand UEs over")
	}

	var got strings.Builder
	for _, name := range goldenNames() {
		fmt.Fprintf(&got, "%s.jsonl %s\n", name, digest(runs[name].stream))
		fmt.Fprintf(&got, "%s.prom %s\n", name, digest(runs[name].metrics))
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s: %v", goldenPath, err)
	}
	if string(want) != got.String() {
		t.Errorf("serve digests differ from %s:\n--- got\n%s--- pinned\n%s", goldenPath, got.String(), want)
	}
}

// goldenNames lists the golden configurations in file order.
func goldenNames() []string {
	names := []string{"sched"}
	for _, cells := range []int{1, 3} {
		for _, policy := range Policies() {
			names = append(names, fmt.Sprintf("fleet-%d-%s", cells, policy))
		}
	}
	return names
}
