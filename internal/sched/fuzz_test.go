package sched

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/report"
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

// FuzzServeDiscipline serves a decoded trace — arrival gaps, service
// cycles and failing jobs, optionally repeated past a serving window —
// through the stub scheduler (one cell) or a least-queue ServeCells of
// three cells, and compares every JobResult and summary with refServe.
func FuzzServeDiscipline(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 10, 0, 0, 10, 0, 3, 10, 1, 0, 10, 0})
	f.Add([]byte{3, 0, 1, 0, 40, 0, 1, 40, 0, 0, 7, 0, 200, 1, 1, 0, 90, 0})
	f.Add([]byte{1, 3, 6, 5, 30, 0, 2, 60, 0, 0, 45, 1, 3, 30, 0, 0, 80, 0})
	f.Add([]byte{2, 1, 7, 12, 90, 0, 0, 120, 0, 30, 10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		servers := []int{1, 2, 3, 1 << 50}[data[0]%4]
		depth := []int{-1, 0, 1, 3}[data[1]%4]
		cells := 1 + 2*int(data[2]&1)
		workers := 1 + int(data[2]>>1&1)
		long := data[2]&4 != 0
		var pattern []Job
		for p := data[3:]; len(p) >= 3 && len(pattern) < 64; p = p[3:] {
			j := stubJob("", int64(p[0])*50, 1+int64(p[1])*100) // Arrival holds the gap
			if p[2]&1 != 0 {
				j.Chain.SNRdB = -1
			}
			pattern = append(pattern, j)
		}
		reps := 1
		if long {
			reps = window/len(pattern) + 2
		}
		var jobs []Job
		var at int64
		for r := 0; r < reps; r++ {
			for _, j := range pattern {
				at += j.Arrival
				j.Arrival = at
				jobs = append(jobs, j)
			}
		}

		wantRes, wantCells, wantAll := refServe(jobs, cells, servers, depth)
		cfg := Config{Servers: servers, QueueDepth: depth, Workers: workers, Seed: 1}
		s := stubScheduler(cfg)
		var got []JobResult
		var gotCells []report.ServiceSummary
		var gotAll report.ServiceSummary
		if cells == 1 {
			var sum report.ServiceSummary
			got, sum = s.Serve(jobs)
			sum.Pool, sum.Host = nil, nil
			gotCells = []report.ServiceSummary{sum}
			gotAll = wantAll
		} else {
			queues := make([]Queue, cells)
			for c := range queues {
				queues[c] = Queue{Servers: servers, QueueDepth: depth}
			}
			leastQueue := func(r *Replay, _ int, _ *Job) int {
				best := 0
				for c := 1; c < cells; c++ {
					if r.Backlog(c) < r.Backlog(best) {
						best = c
					}
				}
				return best
			}
			run, err := ServeCells(cfg, s.measure, jobs, nil, queues, leastQueue, func(r *JobResult, _ *Job) error {
				got = append(got, *r)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			gotCells, gotAll = run.Cells, run.All
		}
		for i := range wantRes {
			if i >= len(got) || !reflect.DeepEqual(got[i], wantRes[i]) {
				t.Fatalf("job %d of %d (servers %d, depth %d, cells %d):\n got %+v\nwant %+v", i, len(jobs), servers, depth, cells, got[i:min(i+1, len(got))], wantRes[i])
			}
		}
		if len(got) != len(wantRes) {
			t.Fatalf("%d results, want %d", len(got), len(wantRes))
		}
		if !reflect.DeepEqual(gotCells, wantCells) || !reflect.DeepEqual(gotAll, wantAll) {
			t.Fatalf("summaries\n got %+v\n     %+v\nwant %+v\n     %+v", gotCells, gotAll, wantCells, wantAll)
		}
	})
}

// refServe is the reference FuzzServeDiscipline holds the serving loop
// to: the batch replay with linear server scans. It serves jobs over
// cells identical cells with the stub measurement (service = seed,
// payload 1000 bits, failure when SNRdB < 0), routing each arrival to
// the least-backlogged cell (lowest index on ties), and summarizes each
// cell and the whole run with refSummarize.
func refServe(jobs []Job, cells, servers, depth int) ([]JobResult, []report.ServiceSummary, report.ServiceSummary) {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Arrival < jobs[order[b]].Arrival })
	queueCap := depth
	if depth == 0 {
		queueCap = DefaultQueueDepth
	} else if depth < 0 {
		queueCap = 0
	}
	type cell struct {
		free  []int64
		queue []int
	}
	cs := make([]cell, cells)
	for c := range cs {
		cs[c].free = make([]int64, min(servers, len(jobs)))
	}
	earliest := func(c int) (int, int64) {
		srv := 0
		for i, f := range cs[c].free {
			if f < cs[c].free[srv] {
				srv = i
			}
		}
		return srv, cs[c].free[srv]
	}
	res := make([]JobResult, len(jobs))
	start := func(c, pos, srv int, at int64) {
		r := &res[pos]
		end := at + r.ServiceCycles
		cs[c].free[srv] = end
		r.Outcome = Served
		r.Record = report.JobRecord{
			Job: pos, Name: r.Name, Cell: c,
			SlotRecord:   report.SlotRecord{Kind: "chain", TotalCycles: r.ServiceCycles, PayloadBits: 1000},
			ArrivalCycle: r.Arrival, StartCycle: at, FinishCycle: end,
			WaitCycles: at - r.Arrival, LatencyCycles: end - r.Arrival,
		}
	}
	drain := func(c int, until int64, final bool) {
		for len(cs[c].queue) > 0 {
			srv, at := earliest(c)
			if !final && at > until {
				return
			}
			start(c, cs[c].queue[0], srv, at)
			cs[c].queue = cs[c].queue[1:]
		}
	}
	for pos, ji := range order {
		job := &jobs[ji]
		r := &res[pos]
		r.Job, r.Name, r.Arrival = pos, job.Name, job.Arrival
		for c := range cs {
			drain(c, job.Arrival, false)
		}
		c, best := 0, -1
		for k := range cs {
			load := len(cs[k].queue)
			for _, f := range cs[k].free {
				if f > job.Arrival {
					load++
				}
			}
			if best < 0 || load < best {
				c, best = k, load
			}
		}
		r.Cell = c
		if job.Chain.SNRdB < 0 {
			r.Outcome, r.Error = Failed, "stub: bad job"
			continue
		}
		r.ServiceCycles, r.OfferedBits = int64(job.Chain.Seed), 1000
		if srv, at := earliest(c); len(cs[c].queue) == 0 && at <= job.Arrival {
			start(c, pos, srv, job.Arrival)
		} else if len(cs[c].queue) < queueCap {
			cs[c].queue = append(cs[c].queue, pos)
		} else {
			r.Outcome = Dropped
		}
		r.QueueDepth = len(cs[c].queue)
	}
	for c := range cs {
		drain(c, 0, true)
	}
	perCell := make([]report.ServiceSummary, cells)
	for c := range perCell {
		var mine []JobResult
		for _, r := range res {
			if r.Cell == c {
				mine = append(mine, r)
			}
		}
		perCell[c] = refSummarize(mine, servers, queueCap)
	}
	return res, perCell, refSummarize(res, cells*servers, 0)
}

// refSummarize is the batch summary of results: every served wait and
// latency collected and sorted for the nearest-rank percentiles.
func refSummarize(results []JobResult, servers, queueCap int) report.ServiceSummary {
	sum := report.ServiceSummary{Kind: "summary", Jobs: len(results), Servers: servers, QueueDepth: queueCap}
	var first, last, busy, waitSum, latSum int64
	var waits, lats []int64
	for i, r := range results {
		if i == 0 || r.Arrival < first {
			first = r.Arrival
		}
		last = max(last, r.Arrival)
		switch r.Outcome {
		case Served:
			sum.Served++
			sum.OfferedBits += r.Record.PayloadBits
			sum.ServedBits += r.Record.PayloadBits
			busy += r.ServiceCycles
			waitSum += r.Record.WaitCycles
			latSum += r.Record.LatencyCycles
			waits = append(waits, r.Record.WaitCycles)
			lats = append(lats, r.Record.LatencyCycles)
			sum.MaxWaitCycles = max(sum.MaxWaitCycles, r.Record.WaitCycles)
			sum.MaxLatencyCycles = max(sum.MaxLatencyCycles, r.Record.LatencyCycles)
			last = max(last, r.Record.FinishCycle)
		case Dropped:
			sum.Dropped++
			sum.OfferedBits += r.OfferedBits
		case Failed:
			sum.Failed++
		}
	}
	sum.HorizonCycles = last - first
	sum.HorizonMs = float64(sum.HorizonCycles) / CyclesPerMs
	if sum.HorizonCycles > 0 {
		sum.OfferedGbps = report.Gbps(sum.OfferedBits, sum.HorizonCycles)
		sum.ServedGbps = report.Gbps(sum.ServedBits, sum.HorizonCycles)
		sum.Utilization = float64(busy) / (float64(servers) * float64(sum.HorizonCycles))
	}
	if sum.Served > 0 {
		sum.MeanWaitCycles = float64(waitSum) / float64(sum.Served)
		sum.MeanLatencyCycles = float64(latSum) / float64(sum.Served)
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		sum.WaitP50Cycles = obs.PercentileInt64(waits, 50)
		sum.WaitP95Cycles = obs.PercentileInt64(waits, 95)
		sum.WaitP99Cycles = obs.PercentileInt64(waits, 99)
		sum.LatencyP50Cycles = obs.PercentileInt64(lats, 50)
		sum.LatencyP95Cycles = obs.PercentileInt64(lats, 95)
		sum.LatencyP99Cycles = obs.PercentileInt64(lats, 99)
	}
	if sum.Jobs > 0 {
		sum.DropRate = float64(sum.Dropped) / float64(sum.Jobs)
	}
	return sum
}
