package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
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

// TestFanOut: every index runs exactly once, on the shard of the worker
// it names, with no two calls of one worker at once; the pool has one
// shard per worker after clamping, and no shard builds a second machine for one
// configuration, because each shard belongs to one goroutine that
// returns its machine before the next call — also when the pool is
// fanned out again, as a serve does once per window. The rows with far
// more indices than workers keep the workers drawing from the shared
// index counter at once, as a serve's window does.
func TestFanOut(t *testing.T) {
	cfg := tinyConfig()
	for _, tc := range []struct{ workers, n, shards int }{
		{0, 5, min(runtime.GOMAXPROCS(0), 5)},
		{1, 5, 1},
		{3, 5, 3},
		{8, 5, 5},
		{4, 0, 1},
		{2, 10000, 2},
		{8, 10000, 8},
	} {
		s := NewFanOut(tc.workers, tc.n)
		if s.Shards() != tc.shards {
			t.Errorf("NewFanOut(%d, %d): %d shards, want %d", tc.workers, tc.n, s.Shards(), tc.shards)
		}
		for round := 1; round <= 2; round++ {
			seen := make([]int, tc.n)
			busy := make([]atomic.Int32, tc.shards)
			s.FanOut(tc.n, func(pool *Machines, w, i int) {
				if w < 0 || w >= tc.shards || pool != s.Shard(w) {
					t.Errorf("FanOut(%d, %d): index %d ran as worker %d on another shard", tc.workers, tc.n, i, w)
					return
				}
				if busy[w].Add(1) != 1 {
					t.Errorf("FanOut(%d, %d): worker %d ran two calls at once", tc.workers, tc.n, w)
				}
				seen[i]++
				pool.Put(pool.Get(cfg))
				busy[w].Add(-1)
			})
			for i, c := range seen {
				if c != 1 {
					t.Errorf("FanOut(%d, %d) round %d: index %d ran %d times", tc.workers, tc.n, round, i, c)
				}
			}
			if st := s.Stats(); st.Gets != int64(round*tc.n) || st.Builds > int64(tc.shards) {
				t.Errorf("FanOut(%d, %d) round %d: pool stats %+v", tc.workers, tc.n, round, st)
			}
		}
	}
}
