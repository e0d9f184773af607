package pusch

import (
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/waveform"
)

// TestArchFingerprintMemo: the memoized fingerprint equals the direct
// rendering for the stock clusters and for a copy with one field
// changed, which must not reuse its original's fingerprint, also when
// many goroutines ask at once (run under -race).
func TestArchFingerprintMemo(t *testing.T) {
	deep := *arch.MemPool()
	deep.BankWords *= 2
	cfgs := []*arch.Config{arch.MemPool(), arch.TeraPool(), &deep}
	if archFingerprint(cfgs[0]) == archFingerprint(&deep) {
		t.Fatal("changing a field must change the rendering")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cfg := cfgs[(g+i)%len(cfgs)]
				if got, want := ArchFingerprint(cfg), archFingerprint(cfg); got != want {
					t.Errorf("%s: memoized fingerprint %s, rendered %s", cfg.Name, got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestKeysPinned pins the bytes of CacheKey and of the chain record's
// report.SlotRecord.Key: persisted -cache-file entries and baseline
// diffs match on them, so neither may move. The analytic case has no
// cache key; its record key carries the timing stamp.
func TestKeysPinned(t *testing.T) {
	base := ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 14, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   0x2a,
	}
	tdl := base
	tdl.Scheme, tdl.SNRdB = waveform.QAM16, 12.5
	tdl.Channel = channel.Spec{Profile: channel.TDLB, DopplerHz: 30, RicianK: 2.5, Seed: 0xbeef, TimeMs: 1.25}
	pipe := base
	pipe.Layout = StockPipelined(pipe.Cluster)
	interp := base
	interp.InterpolateChannel = true
	interp.DataAmp, interp.PilotAmp, interp.Taps = 0.125, 0.75, 6
	analytic := base
	analytic.Timing = TimingAnalytic
	custom := *arch.MemPool()
	custom.Name = "MemPool-Deep"
	custom.BankWords *= 2
	scaled := base
	scaled.Cluster = &custom
	for _, c := range []struct {
		name          string
		cfg           ChainConfig
		cacheKey, key string
	}{
		{"legacy", base,
			"tc1|chain/mempool/256c/4ue/chol0/qpsk|nsc64/nr16/nb8/sy14/pi2|snr20|amp0.25:0.5|taps4|seed2a|archdf740d41995dc463",
			"chain/mempool/256c/4ue/chol0/qpsk"},
		{"tdl-b", tdl,
			"tc1|chain/mempool/256c/4ue/chol0/16qam/tdl-b/csbeef/t1.25|nsc64/nr16/nb8/sy14/pi2|snr12.5|amp0.25:0.5|taps4|seed2a|fd30/k2.5/ds100|archdf740d41995dc463",
			"chain/mempool/256c/4ue/chol0/16qam/tdl-b/csbeef/t1.25"},
		{"pipelined", pipe,
			"tc1|chain/mempool/256c/4ue/chol0/qpsk/pipe/f128/b64/d64|nsc64/nr16/nb8/sy14/pi2|snr20|amp0.25:0.5|taps4|seed2a|archdf740d41995dc463",
			"chain/mempool/256c/4ue/chol0/qpsk/pipe/f128/b64/d64"},
		{"interpolation", interp,
			"tc1|chain/mempool/256c/4ue/chol0/qpsk|nsc64/nr16/nb8/sy14/pi2|snr20|amp0.125:0.75|taps6|seed2a|interp|archdf740d41995dc463",
			"chain/mempool/256c/4ue/chol0/qpsk"},
		{"analytic", analytic,
			"",
			"chain/mempool/256c/4ue/chol0/qpsk/analytic"},
		{"custom-cluster", scaled,
			"tc1|chain/mempool-deep/256c/4ue/chol0/qpsk|nsc64/nr16/nb8/sy14/pi2|snr20|amp0.25:0.5|taps4|seed2a|archc2df078b83757787",
			"chain/mempool-deep/256c/4ue/chol0/qpsk"},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.cfg.CacheKey()
			if c.cacheKey == "" {
				if err == nil {
					t.Errorf("CacheKey = %q, want an error", got)
				}
			} else if err != nil || got != c.cacheKey {
				t.Errorf("CacheKey = %q, %v; want %q", got, err, c.cacheKey)
			}
			rec := (&ChainResult{}).Record(c.cfg)
			if c.cfg.Timing == TimingAnalytic {
				rec.Timing = string(TimingAnalytic)
			}
			if got := rec.Key(); got != c.key {
				t.Errorf("record Key = %q, want %q", got, c.key)
			}
		})
	}
}

// TestCacheKeyAllocatesOnlyTheKey: CacheKey runs on every cached job of
// a serve, so its only allocation is the key string, on the legacy and
// the fading coordinate alike, and on a pipelined one, whose layout
// name is rendered without fmt.
func TestCacheKeyAllocatesOnlyTheKey(t *testing.T) {
	legacy := ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     256, NR: 16, NB: 8, NL: 4,
		NSymb: 6, NPilot: 2,
		Scheme: waveform.QAM64,
		SNRdB:  20,
		Seed:   1,
	}
	tdl := legacy
	tdl.Channel = channel.Spec{Profile: channel.TDLB, DopplerHz: 30, Seed: 7, TimeMs: 0.5}
	pipe := legacy
	pipe.NSymb = 14
	pipe.Layout = StockPipelined(pipe.Cluster)
	for _, cfg := range []ChainConfig{legacy, tdl, pipe} {
		if _, err := cfg.CacheKey(); err != nil { // warms the fingerprint memo
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = cfg.CacheKey() }); n != 1 {
			t.Errorf("%s, %s: CacheKey allocates %v times, want 1 (the key)", cfg.Channel.EffectiveProfile(), cfg.Layout, n)
		}
	}
}
