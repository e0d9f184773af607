package sched

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/timecache"
	"repro/internal/waveform"
)

// cacheTestTrace is a repeated-coordinate mixed trace: the Table I
// blend over a small slot with a pinned payload seed, so only the
// mix's three distinct scenario coordinates recur.
func cacheTestTrace(t *testing.T, jobs int) []Job {
	t.Helper()
	base := pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 6, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
	trace := MixedTrace(TableIMix(&base), jobs, 2, 1)
	if len(trace) != jobs {
		t.Fatalf("trace has %d jobs, want %d", len(trace), jobs)
	}
	return trace
}

func serveBytes(t *testing.T, cfg Config, trace []Job) ([]byte, report.ServiceSummary) {
	t.Helper()
	s := &Scheduler{Cfg: cfg}
	var buf bytes.Buffer
	sum, err := s.WriteJSONL(&buf, trace)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

// TestCacheByteIdentical is the exactness contract: the same trace
// served cold, through a fresh cache, and through a warm cache — at
// several worker counts — produces byte-identical JSONL streams.
func TestCacheByteIdentical(t *testing.T) {
	trace := cacheTestTrace(t, 12)
	cold, _ := serveBytes(t, Config{Servers: 2, Seed: 1, Workers: 1}, trace)

	for _, workers := range []int{1, 3, 8} {
		cache := timecache.New(0)
		cfg := Config{Servers: 2, Seed: 1, Workers: workers, Cache: cache}

		fresh, freshSum := serveBytes(t, cfg, trace)
		if !bytes.Equal(cold, fresh) {
			t.Fatalf("workers=%d: fresh-cache stream differs from cold", workers)
		}
		if freshSum.Host == nil || freshSum.Host.CacheMisses == 0 {
			t.Fatalf("workers=%d: fresh pass should have populated the cache, host = %+v", workers, freshSum.Host)
		}

		warm, warmSum := serveBytes(t, cfg, trace)
		if !bytes.Equal(cold, warm) {
			t.Fatalf("workers=%d: warm-cache stream differs from cold", workers)
		}
		if warmSum.Host == nil || warmSum.Host.CacheMisses != 0 {
			t.Fatalf("workers=%d: warm pass should be all hits, host = %+v", workers, warmSum.Host)
		}
		if warmSum.Host.CacheHitRate != 1 {
			t.Fatalf("workers=%d: warm hit rate = %v, want 1", workers, warmSum.Host.CacheHitRate)
		}
	}
}

// TestCacheStreamStripsHostStats: the byte-deterministic JSONL stream
// must omit the host-side summary fields (they vary with wall clock
// and worker count), while Serve still returns them.
func TestCacheStreamStripsHostStats(t *testing.T) {
	trace := cacheTestTrace(t, 4)
	out, sum := serveBytes(t, Config{Seed: 1, Cache: timecache.New(0)}, trace)
	if strings.Contains(string(out), `"host"`) || strings.Contains(string(out), `"wall_seconds"`) {
		t.Fatal("JSONL stream leaks host stats")
	}
	if sum.Host == nil || sum.Host.WallSeconds <= 0 {
		t.Fatalf("Serve summary should carry host stats, got %+v", sum.Host)
	}
}

// TestPoisonedCacheEntry: an entry persisted under a stale or foreign
// key derivation must become a miss — never a wrong timing. The
// poisoned record carries absurd cycle counts; if it were ever served,
// the stream would differ from the cold run.
func TestPoisonedCacheEntry(t *testing.T) {
	trace := cacheTestTrace(t, 6)
	cold, _ := serveBytes(t, Config{Seed: 1, Workers: 1}, trace)
	// Reference hit pattern: the trace served through a clean cache
	// (repeated coordinates hit within the run).
	_, cleanSum := serveBytes(t, Config{Seed: 1, Workers: 1, Cache: timecache.New(0)}, trace)

	cache := timecache.New(0)
	poison := report.SlotRecord{Kind: "chain", Cluster: "MemPool", Cores: 256, UEs: 4, TotalCycles: 1}
	// A stale-schema key (as if the derivation changed between runs) and
	// a plausible-looking but wrong-coordinate key. If either were ever
	// served, its absurd 1-cycle service time would change the stream.
	cache.Add("tc0|chain/mempool/256c/4ue/chol0/qpsk|old-derivation", poison)
	cache.Add("tc1|chain/mempool/256c/4ue/chol0/qpsk|nsc64/nr16/nb8/sy6/pi2|snr20|bogus", poison)

	got, sum := serveBytes(t, Config{Seed: 1, Workers: 1, Cache: cache}, trace)
	if !bytes.Equal(cold, got) {
		t.Fatal("poisoned cache entries changed the served stream")
	}
	if sum.Host == nil || cleanSum.Host == nil ||
		sum.Host.CacheHits != cleanSum.Host.CacheHits ||
		sum.Host.CacheMisses != cleanSum.Host.CacheMisses {
		t.Fatalf("poisoned entries changed the hit pattern: got %+v, clean %+v", sum.Host, cleanSum.Host)
	}
}

// TestCacheKeyCoordinates: coordinates that change timing or payload
// must change the key; the non-canonical layout must refuse a key.
func TestCacheKeyCoordinates(t *testing.T) {
	base := pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 6, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
	key := func(c pusch.ChainConfig) string {
		k, err := c.CacheKey()
		if err != nil {
			t.Fatalf("CacheKey(%+v): %v", c, err)
		}
		return k
	}
	ref := key(base)
	variants := map[string]func(*pusch.ChainConfig){
		"seed":    func(c *pusch.ChainConfig) { c.Seed = 2 },
		"snr":     func(c *pusch.ChainConfig) { c.SNRdB = 21 },
		"nsc":     func(c *pusch.ChainConfig) { c.NSC = 256 },
		"ues":     func(c *pusch.ChainConfig) { c.NL = 2 },
		"scheme":  func(c *pusch.ChainConfig) { c.Scheme = waveform.QAM16 },
		"cluster": func(c *pusch.ChainConfig) { c.Cluster = arch.TeraPool() },
		"channel": func(c *pusch.ChainConfig) { c.Channel.Profile = "tdl-a"; c.Channel.Seed = 9 },
		"geometry": func(c *pusch.ChainConfig) {
			scaled := *arch.MemPool()
			scaled.Groups = 8
			c.Cluster = &scaled
		},
	}
	for name, mutate := range variants {
		cfg := base
		mutate(&cfg)
		if key(cfg) == ref {
			t.Errorf("variant %q: key did not change", name)
		}
	}
	if base.Seed != 1 {
		t.Fatal("mutation leaked into base")
	}

	// Same config twice: identical key (the memo must actually hit).
	if key(base) != ref {
		t.Error("identical configs produced different keys")
	}
}

// TestServeMemoMatchesResolve: each job of a trace three windows long
// that repeats six coordinates, the Table I mix on the analytic model
// and from a warm cache, is served with what campaign.Resolve returns
// for its chain, at 1, 2 and 3 workers, each resolving through its own
// memo across the windows; and the cache counts one hit per
// cycle-accurate job, as it would without the memos.
func TestServeMemoMatchesResolve(t *testing.T) {
	model := analyticModel(t)
	trace := cacheTestTrace(t, 2*window+300)
	cached := 0
	for i := range trace {
		if i%2 == 1 {
			trace[i].Chain.Timing = pusch.TimingAnalytic
		} else {
			cached++
		}
		if i > 0 && trace[i].Arrival < trace[i-1].Arrival {
			t.Fatal("the trace is not in arrival order")
		}
	}
	cache := timecache.New(0)
	pool := engine.NewMachines()
	want := make([]report.SlotRecord, len(trace))
	for i := range trace {
		rec, err := campaign.Resolve(pool, trace[i].Chain, cache, model, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rec
	}
	for _, workers := range []int{1, 2, 3} {
		s := &Scheduler{Cfg: Config{Servers: len(trace), Workers: workers, Cache: cache, Model: model}}
		results, sum := s.Serve(trace)
		if sum.Served != len(trace) || sum.Host.CacheHits != int64(cached) || sum.Host.CacheMisses != 0 {
			t.Fatalf("workers=%d: served %d of %d jobs, %d cache hits and %d misses, want %d hits", workers, sum.Served, len(trace), sum.Host.CacheHits, sum.Host.CacheMisses, cached)
		}
		for _, r := range results {
			if !reflect.DeepEqual(r.Record.SlotRecord, want[r.Job]) {
				t.Fatalf("workers=%d: job %d served %+v, Resolve returns %+v", workers, r.Job, r.Record.SlotRecord, want[r.Job])
			}
		}
	}
}
