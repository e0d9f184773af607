package engine

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/arch"
)

// tinyConfig returns a small valid cluster so pool tests do not allocate
// multi-MiB arenas per machine.
func tinyConfig() *arch.Config {
	cfg := arch.MemPool()
	cfg.Groups = 1
	cfg.Name = "tiny"
	return cfg
}

func TestMachinesStats(t *testing.T) {
	cfg := tinyConfig()
	pool := NewMachines()

	m1 := pool.Get(cfg)
	m2 := pool.Get(cfg)
	if s := pool.Stats(); s.Gets != 2 || s.Builds != 2 || s.Reuses != 0 || s.InUse != 2 || s.Peak != 2 || s.Idle != 0 {
		t.Fatalf("after two builds: %+v", s)
	}
	pool.Put(m1)
	pool.Put(m2)
	if s := pool.Stats(); s.Puts != 2 || s.InUse != 0 || s.Idle != 2 {
		t.Fatalf("after two puts: %+v", s)
	}
	m3 := pool.Get(cfg)
	if s := pool.Stats(); s.Gets != 3 || s.Builds != 2 || s.Reuses != 1 || s.InUse != 1 || s.Peak != 2 || s.Idle != 1 {
		t.Fatalf("after reuse: %+v", s)
	}
	pool.Put(m3)
}

func TestShardedStatsAndIsolation(t *testing.T) {
	cfg := tinyConfig()
	s := NewSharded(3)
	if s.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", s.Shards())
	}
	if s.Shard(0) == s.Shard(1) || s.Shard(1) == s.Shard(2) {
		t.Fatal("shards must be distinct pools")
	}
	if s.Shard(0) != s.Shard(3) || s.Shard(-1) != s.Shard(2) {
		t.Fatal("Shard must wrap modulo the shard count")
	}

	// A machine put back into shard 0 must not satisfy a Get on shard 1.
	s.Shard(0).Put(s.Shard(0).Get(cfg))
	m := s.Shard(1).Get(cfg)
	agg := s.Stats()
	if agg.Gets != 2 || agg.Builds != 2 || agg.Reuses != 0 {
		t.Fatalf("cross-shard reuse leaked: %+v", agg)
	}
	if agg.InUse != 1 || agg.Idle != 1 {
		t.Fatalf("aggregate occupancy: %+v", agg)
	}
	s.Shard(1).Put(m)
	if s.Size() != 2 {
		t.Fatalf("Size() = %d, want 2", s.Size())
	}
}

// TestShardedConcurrent hammers a sharded pool from many goroutines; its
// real assertion is the -race run in CI, plus conservation of the
// aggregate counters afterwards.
func TestShardedConcurrent(t *testing.T) {
	cfg := tinyConfig()
	const workers, rounds = 8, 16
	s := NewSharded(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := s.Shard(w)
			for i := 0; i < rounds; i++ {
				m := pool.Get(cfg)
				m.Mem.Write(0, uint32(w*rounds+i))
				pool.Put(m)
			}
		}(w)
	}
	wg.Wait()
	agg := s.Stats()
	if agg.Gets != workers*rounds || agg.Puts != workers*rounds || agg.InUse != 0 {
		t.Fatalf("counter conservation: %+v", agg)
	}
	if agg.Builds != workers || agg.Reuses != workers*(rounds-1) {
		t.Fatalf("each worker should build once and reuse after: %+v", agg)
	}
}

// TestFanOut: every index runs exactly once, the pool has one shard per
// worker after clamping, and no shard builds a second machine for one
// configuration, because each shard belongs to one goroutine that
// returns its machine before the next call.
func TestFanOut(t *testing.T) {
	cfg := tinyConfig()
	for _, tc := range []struct{ workers, n, shards int }{
		{0, 5, min(runtime.GOMAXPROCS(0), 5)},
		{1, 5, 1},
		{3, 5, 3},
		{8, 5, 5},
		{4, 0, 1},
	} {
		seen := make([]int, tc.n)
		s := FanOut(tc.workers, tc.n, func(pool *Machines, i int) {
			seen[i]++
			pool.Put(pool.Get(cfg))
		})
		if s.Shards() != tc.shards {
			t.Errorf("FanOut(%d, %d): %d shards, want %d", tc.workers, tc.n, s.Shards(), tc.shards)
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("FanOut(%d, %d): index %d ran %d times", tc.workers, tc.n, i, c)
			}
		}
		if st := s.Stats(); st.Gets != int64(tc.n) || st.Builds > int64(tc.shards) {
			t.Errorf("FanOut(%d, %d): pool stats %+v", tc.workers, tc.n, st)
		}
	}
}
