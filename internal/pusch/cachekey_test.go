package pusch

import (
	"sync"
	"testing"

	"repro/internal/arch"
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
