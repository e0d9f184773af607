package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/timecache"
	"repro/internal/timing"
)

// replayBench is replay-long: a 3-cell fleet.Fleet, least-queue routing,
// 2 servers per cell, serving a 100k-job Table I mix trace (legacy
// channel, payload seed pinned to the run's seed) at Poisson 200
// slots/ms. Odd jobs are pinned to the analytic timing path; even jobs
// are cycle-accurate and served from a cache warmed during set-up, so
// the engine does no work. One pass serves the whole trace; an op is
// one served job.
type replayBench struct {
	model  *timing.Model
	cells  []fleet.Cell
	trace  []sched.Job
	cache  *timecache.Cache
	coords []pusch.ChainConfig // the trace's cycle-accurate coordinates
	cached int                 // cycle-accurate jobs in the trace
	digest string
}

const (
	replayJobs    = 100_000
	replayRate    = 200 // slots per ms of simulated time
	replayCells   = 3
	replayServers = 2 // per cell
)

func (b *replayBench) setup(x *run) error {
	model, err := timing.Load(x.path(timing.DefaultPath))
	if err != nil {
		return err
	}
	b.model = model
	pinned := max(x.seed, 1) // 0 would let the fleet derive a seed per job
	base := pusch.ChainConfig{NSC: 256, NR: 16, NB: 8, NL: 4, NSymb: 6, NPilot: 2, SNRdB: 20}
	mix := sched.TableIMix(&base)
	b.trace = sched.MixedTracePop(mix, x.scaled(replayJobs, 100), replayRate, shapeSeed, fleet.Population(replayCells))
	for i := range b.trace {
		c := &b.trace[i].Chain
		c.Seed = pinned
		if i%2 == 1 {
			c.Timing = pusch.TimingAnalytic
		} else {
			b.cached++
		}
	}
	b.cells = fleet.Homogeneous(replayCells, fleet.Cell{Cluster: arch.MemPool(), Servers: replayServers})

	b.cache = timecache.New(0)
	pool := engine.NewMachines()
	pool.Put(x.newMachine(arch.MemPool()))
	for _, e := range mix {
		cfg := b.cellConfig(e.Chain)
		cfg.Seed = pinned
		if _, err := sched.Resolve(pool, cfg, b.cache, nil, nil); err != nil {
			return err
		}
		b.coords = append(b.coords, cfg)
	}
	return nil
}

// cellConfig applies the homogeneous cells' serving class to a job, as
// the fleet does before resolving it.
func (b *replayBench) cellConfig(cfg pusch.ChainConfig) pusch.ChainConfig {
	if cfg.Cluster == nil {
		cfg.Cluster = b.cells[0].Cluster
	}
	return cfg
}

func (b *replayBench) fleet(workers int) *fleet.Fleet {
	return &fleet.Fleet{Cfg: fleet.Config{
		Cells:   b.cells,
		Policy:  fleet.LeastQueue,
		Workers: workers,
		Cache:   b.cache,
		Model:   b.model,
	}}
}

func (b *replayBench) measure(x *run) (opStats, sim) {
	var st opStats
	var sm sim
	n := len(b.trace)
	for p := 0; !x.timeUp(p, 1); p++ {
		runtime.GC() // each pass starts from the same heap, outside its timing
		w := newStampWriter()
		sum, err := b.fleet(2).WriteJSONL(w, b.trace)
		st.pass(time.Since(w.start), w.first, n)
		x.r.Attempted += n
		if err == nil {
			err = checkServed(sum.Jobs, sum.Served, sum.Dropped, sum.Failed, n)
		}
		if h := sum.Host; err == nil && (h.CacheHits != int64(b.cached) || h.CacheMisses != 0) {
			err = fmt.Errorf("%d hits / %d misses, want every one of %d cycle-accurate jobs to hit", h.CacheHits, h.CacheMisses, b.cached)
		}
		if p == 0 {
			b.digest = w.digest()
			sm = sim{
				cyclesPerOp: meanService(sum.Utilization, replayCells*replayServers, sum.HorizonCycles, sum.Served),
				gbps:        sum.ServedGbps,
				latP50:      sum.LatencyP50Cycles,
				latP99:      sum.LatencyP99Cycles,
				waitP99:     sum.WaitP99Cycles,
				dropRatio:   sum.DropRate,
				utilization: sum.Utilization,
				hitRatio:    sum.Host.CacheHitRate,
			}
			for i, c := range sum.PerCell {
				if i == 0 || c.Utilization < sm.utilMin {
					sm.utilMin = c.Utilization
				}
				sm.utilMax = max(sm.utilMax, c.Utilization)
			}
		} else if err == nil && w.digest() != b.digest {
			err = fmt.Errorf("wrote %s, pass 0 wrote %s", w.digest(), b.digest)
		}
		x.r.fail(n, opErr(p, err))
	}
	return st, sm
}

func (b *replayBench) traced(x *run, l *lane) (int, engineTally) {
	// Set-up's cache warm-up again, on a fresh cache: the only engine
	// work this workload does, and the whole of its setup_s.
	tally := engineTally{runSpans: []string{"pusch.run"}}
	pool := engine.NewMachines()
	warm := timecache.New(0)
	l.begin("warm-cache", 0)
	for k, cfg := range b.coords {
		err := l.do("sched.resolve", k, func() error {
			_, err := sched.Resolve(pool, cfg, warm, nil, tracedMeasure(l, k, &tally))
			return err
		})
		x.r.Attempted++
		x.r.fail(1, opErr(k, err))
	}
	l.end()

	prefix := b.trace[:min(len(b.trace), x.scaled(replayJobs/10, 10))]
	errs := make([]error, len(prefix)) // each job's first failed check
	l.begin("op", 0)
	var resolveNs int64
	for j := range prefix {
		cfg := b.cellConfig(prefix[j].Chain)
		var rec report.SlotRecord
		t := time.Now()
		err := l.do("sched.resolve_fast", j, func() (err error) {
			rec, err = sched.Resolve(nil, cfg, b.cache, b.model, cacheOnly)
			return err
		})
		resolveNs += time.Since(t).Nanoseconds()
		if err == nil {
			err = checkStamp(j, rec.Timing)
		}
		errs[j] = err
		// The model or cache calls Resolve made, timed alone.
		if cfg.Timing == pusch.TimingAnalytic {
			l.do("timing.predict", j, func() error {
				_, err := b.model.Predict(cfg)
				return err
			})
			continue
		}
		var key string
		l.do("timecache.key", j, func() (err error) {
			key, err = cfg.CacheKey()
			return err
		})
		l.do("timecache.lookup", j, func() error {
			b.cache.Lookup(key)
			return nil
		})
	}

	var results []sched.JobResult
	var sum report.FleetSummary
	l.do("fleet.serve", 0, func() error {
		results, sum = b.fleet(1).Serve(prefix)
		return nil
	})
	for i := range results {
		if r := &results[i]; r.Outcome == sched.Served && errs[r.Job] == nil {
			errs[r.Job] = checkStamp(r.Job, r.Record.Timing)
		}
	}
	perCell := make([][]sched.JobResult, replayCells)
	for _, r := range results {
		perCell[r.Cell] = append(perCell[r.Cell], r)
	}
	reg := obs.NewRegistry()
	for c, rs := range perCell {
		var cs report.ServiceSummary
		l.do("sched.summarize", c, func() error {
			cs = sched.Summarize(rs, replayServers, sched.DefaultQueueDepth)
			return nil
		})
		l.do("obs.fold", c, func() error {
			sched.RecordServiceMetrics(reg, strconv.Itoa(c), rs, &cs)
			return nil
		})
	}
	w := newStampWriter()
	err := l.do("report.write", 0, func() error {
		_, err := b.fleet(1).WriteJSONL(w, prefix)
		return err
	})
	l.end()
	x.r.Attempted += len(prefix)
	for j, e := range errs {
		x.r.fail(1, opErr(j, e))
	}
	if err == nil {
		err = checkServed(sum.Jobs, sum.Served, sum.Dropped, sum.Failed, len(prefix))
	}
	x.r.fail(len(prefix), err)

	sp := l.t.stats()
	serve := spanTotal(sp, "fleet.serve")
	x.r.add("fleet.replay_ms", float64(serve-resolveNs-spanTotal(sp, "sched.summarize"))/1e6, "ms")
	x.r.add("report.encode_ms", float64(spanTotal(sp, "report.write")-serve)/1e6, "ms")
	return len(prefix), tally
}

// checkStamp holds a served record to the workload's timing split: odd
// jobs are analytic predictions and stamped so, even jobs replay
// cycle-accurate engine runs.
func checkStamp(job int, stamp string) error {
	want := ""
	if job%2 == 1 {
		want = string(pusch.TimingAnalytic)
	}
	if stamp != want {
		return fmt.Errorf("job %d is stamped %q, want %q", job, stamp, want)
	}
	return nil
}
