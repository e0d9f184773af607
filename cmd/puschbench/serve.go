package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/timecache"
	"repro/internal/waveform"
)

// serveBench is serve-cold: puschd's default serving path. A plain
// sched.Scheduler with 2 servers and 2 measurement workers serves the
// Table I mix at 256 subcarriers / 6 symbols on MemPool, mobile UEs on
// TDL-B at 30 Hz, Poisson arrivals at 70 slots/ms, through a fresh
// service-time cache (every job misses and is added), writing JSONL to
// a timestamping discard writer. One pass serves the whole trace; an op
// is one served job.
type serveBench struct {
	trace    []sched.Job
	machines []*engine.Machine // one per traced worker, built in set-up
	digest   string            // the first measured pass's JSONL
}

const (
	serveJobs    = 64
	serveRate    = 70 // slots per ms of simulated time
	serveServers = 2
	// shapeSeed draws the serving traces' arrival times and mix entries.
	// They are the same for every --seed, so simulated service metrics
	// compare exactly across seeds; --seed draws payloads and fading.
	shapeSeed = 1
)

func (b *serveBench) setup(x *run) error {
	base := pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     256, NR: 16, NB: 8, NL: 4,
		NSymb: 6, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
	}
	profile, err := sched.ParseChannelProfile("tdl-b")
	if err != nil {
		return err
	}
	base = sched.Mobile(base, profile, 30, 0)
	var pop sched.UEPopulation
	b.trace = sched.MixedTracePop(sched.TableIMix(&base), x.scaled(serveJobs, 4), serveRate, shapeSeed, pop)
	for i := range b.trace {
		c := &b.trace[i].Chain
		c.Seed = campaign.DeriveSeed(x.seed, i)
		c.Channel.Seed = pop.FadingSeed(x.seed, i)
	}
	// Serve two jobs once so the first measured pass does not pay the
	// process's first heap growth.
	_, err = b.scheduler(serveServers, timecache.New(0)).WriteJSONL(io.Discard, b.trace[:2])
	for range serveServers {
		b.machines = append(b.machines, x.newMachine(arch.MemPool()))
	}
	return err
}

func (b *serveBench) scheduler(workers int, cache *timecache.Cache) *sched.Scheduler {
	return &sched.Scheduler{Cfg: sched.Config{Servers: serveServers, Workers: workers, Cache: cache}}
}

func (b *serveBench) measure(x *run) (opStats, sim) {
	var st opStats
	var sm sim
	n := len(b.trace)
	for p := 0; !x.timeUp(p, 1); p++ {
		runtime.GC() // each pass starts from the same heap, outside its timing
		cache := timecache.New(0)
		w := newStampWriter()
		if p == 0 {
			w.keep = &bytes.Buffer{}
		}
		sum, err := b.scheduler(serveServers, cache).WriteJSONL(w, b.trace)
		st.pass(time.Since(w.start), w.first, n)
		x.r.Attempted += n
		if err == nil {
			err = checkServed(sum.Jobs, sum.Served, sum.Dropped, sum.Failed, n)
		}
		if cs := cache.Stats(); err == nil && (cs.Misses != int64(n) || cs.Hits != 0) {
			err = fmt.Errorf("%d hits / %d misses on a fresh cache, want 0 / %d", cs.Hits, cs.Misses, n)
		}
		if p == 0 {
			b.digest = w.digest()
			sm = sim{
				cyclesPerOp: meanService(sum.Utilization, serveServers, sum.HorizonCycles, sum.Served),
				gbps:        sum.ServedGbps,
				latP50:      sum.LatencyP50Cycles,
				latP99:      sum.LatencyP99Cycles,
				waitP99:     sum.WaitP99Cycles,
				dropRatio:   sum.DropRate,
				utilization: sum.Utilization,
			}
			if sum.Pool != nil {
				sm.poolBuilds = float64(sum.Pool.Builds)
			}
			if err == nil {
				sm.ber, err = meanBER(w.keep)
			}
		} else if err == nil && w.digest() != b.digest {
			err = fmt.Errorf("wrote %s, pass 0 wrote %s", w.digest(), b.digest)
		}
		x.r.fail(n, opErr(p, err))
	}
	return st, sm
}

// checkServed holds a serving pass to job conservation with no failures.
func checkServed(jobs, served, dropped, failed, want int) error {
	if jobs != want || failed != 0 || served+dropped != jobs {
		return fmt.Errorf("%d jobs: %d served, %d dropped, %d failed; want %d jobs, none failed", jobs, served, dropped, failed, want)
	}
	return nil
}

// meanService recovers the mean simulated service cycles per served job
// from a summary's utilization (busy server-cycles over capacity).
func meanService(util float64, servers int, horizon int64, served int) float64 {
	if served == 0 {
		return 0
	}
	return util * float64(servers) * float64(horizon) / float64(served)
}

// servedBERLimit fails a served slot whose detection is broken. 64-QAM
// slots on the TDL-B channel reach a BER of 0.15; random bits score 0.5.
const servedBERLimit = 0.3

// meanBER decodes a served JSONL stream's job records and returns their
// mean BER, failing on any record above servedBERLimit.
func meanBER(stream *bytes.Buffer) (float64, error) {
	var sum float64
	n := 0
	sc := bufio.NewScanner(stream)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec report.JobRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return 0, err
		}
		if rec.SlotRecord.Kind != "chain" {
			continue // the summary line
		}
		if rec.BER > servedBERLimit {
			return 0, fmt.Errorf("job %d: BER %.4f above %.2f", rec.Job, rec.BER, servedBERLimit)
		}
		sum += rec.BER
		n++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return sum / float64(max(n, 1)), nil
}

func (b *serveBench) traced(x *run, l *lane) (int, engineTally) {
	n := len(b.trace)
	cache, probe := timecache.New(0), timecache.New(0)
	keys := make([]string, n)
	errs := make([]error, n)
	tallies := make([]engineTally, serveServers)
	l.begin("op", 0)

	// Resolve every job cold on as many goroutines as the measured
	// passes' workers, each with its own machine pool. The cache-key
	// derivation and the cache insert Resolve makes around the chain
	// are timed alone after it, on a probe cache.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range serveServers {
		wl := l.fork(fmt.Sprintf("worker %d", w))
		pool := engine.NewMachines()
		pool.Put(b.machines[w])
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j < n; j = int(next.Add(1)) - 1 {
				cfg := b.trace[j].Chain
				var rec report.SlotRecord
				errs[j] = wl.do("sched.resolve", j, func() (err error) {
					rec, err = sched.Resolve(pool, cfg, cache, nil, tracedMeasure(wl, j, &tallies[w]))
					return err
				})
				wl.do("timecache.key", j, func() (err error) {
					keys[j], err = cfg.CacheKey()
					return err
				})
				wl.do("timecache.add", j, func() error {
					probe.Add(keys[j], rec)
					return nil
				})
			}
		}()
	}
	wg.Wait()

	// Serve the now-warm trace on one worker: every job resolves from
	// the cache, so the time left is replay, summary and encoding. Each
	// job's cache-hit resolve is timed alone first.
	var hitNs int64
	for j := range n {
		t := time.Now()
		err := l.do("sched.resolve_fast", j, func() error {
			_, err := sched.Resolve(nil, b.trace[j].Chain, cache, nil, cacheOnly)
			return err
		})
		hitNs += time.Since(t).Nanoseconds()
		if errs[j] == nil {
			errs[j] = err
		}
		l.do("timecache.lookup", j, func() error {
			cache.Lookup(keys[j])
			return nil
		})
	}
	var results []sched.JobResult
	var sum report.ServiceSummary
	l.do("sched.serve", 0, func() error {
		results, sum = b.scheduler(1, cache).Serve(b.trace)
		return nil
	})
	l.do("sched.summarize", 0, func() error {
		sched.Summarize(results, serveServers, sched.DefaultQueueDepth)
		return nil
	})
	l.do("obs.fold", 0, func() error {
		sched.RecordServiceMetrics(obs.NewRegistry(), "", results, &sum)
		return nil
	})
	w := newStampWriter()
	err := l.do("report.write", 0, func() error {
		_, err := b.scheduler(1, cache).WriteJSONL(w, b.trace)
		return err
	})
	l.end()

	x.r.Attempted += n
	for j, e := range errs {
		x.r.fail(1, opErr(j, e))
	}
	if err == nil && w.digest() != b.digest {
		err = fmt.Errorf("the warm 1-worker pass wrote %s, the cold 2-worker passes %s", w.digest(), b.digest)
	}
	x.r.fail(n, err)

	sp := l.t.stats()
	serve := spanTotal(sp, "sched.serve")
	x.r.add("sched.replay_ms", float64(serve-hitNs-spanTotal(sp, "sched.summarize"))/1e6, "ms")
	x.r.add("report.encode_ms", float64(spanTotal(sp, "report.write")-serve)/1e6, "ms")

	tally := engineTally{runSpans: []string{"pusch.run"}}
	for _, t := range tallies {
		tally.merge(t)
	}
	return n, tally
}

// spanTotal is the summed duration of a span name, in ns.
func spanTotal(sp map[string]*spanStat, name string) int64 {
	if s := sp[name]; s != nil {
		return s.total
	}
	return 0
}
