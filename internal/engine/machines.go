package engine

import (
	"runtime"
	"sync"

	"repro/internal/arch"
)

// PoolStats is the occupancy picture of a machine pool at one instant:
// the cumulative Get/Put traffic split into builds (pool misses that
// allocated a fresh arena) and reuses (recycled machines), plus the
// current and peak number of machines checked out. Schedulers and
// campaign runners surface it to show how many multi-MiB cluster arenas
// a workload actually touched.
type PoolStats struct {
	Gets   int64 `json:"gets"`   // machines handed out
	Builds int64 `json:"builds"` // Gets that built a new machine
	Reuses int64 `json:"reuses"` // Gets served by recycling
	Puts   int64 `json:"puts"`   // machines returned
	InUse  int64 `json:"in_use"` // currently checked out
	Peak   int64 `json:"peak"`   // maximum simultaneously checked out
	Idle   int   `json:"idle"`   // currently pooled, ready for reuse
}

// add accumulates o into s, combining counters across pool shards. Peak
// is summed: the shard peaks never coincide exactly, so the result is an
// upper bound on cluster arenas simultaneously alive.
func (s *PoolStats) add(o PoolStats) {
	s.Gets += o.Gets
	s.Builds += o.Builds
	s.Reuses += o.Reuses
	s.Puts += o.Puts
	s.InUse += o.InUse
	s.Peak += o.Peak
	s.Idle += o.Idle
}

// Machines is a concurrency-safe pool of reusable Machine instances,
// keyed by cluster configuration value. Building a Machine allocates the
// cluster's full L1 arena (1 MiB for MemPool, 4 MiB for TeraPool), so
// workloads that run many independent experiments — parameter sweeps,
// campaign runners, benchmarks — recycle machines through a pool instead
// of reallocating one per run. Get resets a pooled machine before
// handing it out, which restores the just-constructed state exactly
// (see Machine.Reset), so pooled and fresh machines are interchangeable.
//
// Configurations are compared by value, not pointer identity: two
// independently built *arch.Config with equal fields share pool slots.
type Machines struct {
	mu    sync.Mutex
	free  map[arch.Config][]*Machine
	stats PoolStats
}

// NewMachines returns an empty pool.
func NewMachines() *Machines {
	return &Machines{free: make(map[arch.Config][]*Machine)}
}

// Get returns a machine for cfg: a reset pooled one when available,
// otherwise a newly built one. Like NewMachine it panics on an invalid
// configuration.
func (ms *Machines) Get(cfg *arch.Config) *Machine {
	ms.mu.Lock()
	key := *cfg
	var m *Machine
	if q := ms.free[key]; len(q) > 0 {
		m, ms.free[key] = q[len(q)-1], q[:len(q)-1]
	}
	ms.stats.Gets++
	ms.stats.InUse++
	if ms.stats.InUse > ms.stats.Peak {
		ms.stats.Peak = ms.stats.InUse
	}
	if m == nil {
		ms.stats.Builds++
	} else {
		ms.stats.Reuses++
	}
	ms.mu.Unlock()
	if m == nil {
		return NewMachine(cfg)
	}
	m.Reset()
	// Reset deliberately preserves caller-set knobs (an attached Tracer,
	// DebugRaces, RotatePriority) for same-owner reuse; across pool
	// owners they would leak state and perturb timing, so scrub them.
	m.Tracer = nil
	m.DebugRaces = false
	m.RotatePriority = false
	return m
}

// Put returns a machine to the pool for later reuse. The caller must not
// use m afterwards.
func (ms *Machines) Put(m *Machine) {
	if m == nil {
		return
	}
	ms.mu.Lock()
	key := *m.Cfg
	ms.free[key] = append(ms.free[key], m)
	ms.stats.Puts++
	ms.stats.InUse--
	ms.mu.Unlock()
}

// Size returns the number of idle machines currently pooled.
func (ms *Machines) Size() int {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	n := 0
	for _, q := range ms.free {
		n += len(q)
	}
	return n
}

// Stats snapshots the pool's cumulative traffic and current occupancy.
func (ms *Machines) Stats() PoolStats {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	s := ms.stats
	for _, q := range ms.free {
		s.Idle += len(q)
	}
	return s
}

// Sharded is a pool of machine pools: N independently locked Machines
// shards, one per concurrent owner. Workloads that fan slot jobs or
// scenarios out across host goroutines give each worker its own shard
// (Shard(worker)), so hot-path Get/Put never contends on a shared lock
// while the aggregate Stats still shows the whole fleet's occupancy —
// how many cluster arenas the run built, reused, and held at peak.
type Sharded struct {
	shards []*Machines
}

// NewSharded returns a pool with n shards (n < 1 is pinned to 1).
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{shards: make([]*Machines, n)}
	for i := range s.shards {
		s.shards[i] = NewMachines()
	}
	return s
}

// FanOut calls fn(pool, i) for every i in [0, n) across workers host
// goroutines and returns the pool they drew machines from. Each
// goroutine owns one shard, so its Get/Put never contends with another
// worker. Workers <= 0 means GOMAXPROCS; the count is clamped to
// [1, n], and one worker runs every call inline on the caller's
// goroutine in index order. Indices are handed out in order but finish
// in any order, so fn must write only to index-owned state for the
// result to be independent of the worker count.
func FanOut(workers, n int, fn func(pool *Machines, i int)) *Sharded {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := NewSharded(max(min(workers, n), 1))
	if len(s.shards) == 1 {
		for i := 0; i < n; i++ {
			fn(s.shards[0], i)
		}
		return s
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for _, pool := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(pool, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return s
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns shard i mod Shards: a stable private pool for one
// worker. Distinct workers using distinct shards never contend.
func (s *Sharded) Shard(i int) *Machines {
	i %= len(s.shards)
	if i < 0 {
		i += len(s.shards)
	}
	return s.shards[i]
}

// Size returns the number of idle machines pooled across all shards.
func (s *Sharded) Size() int {
	n := 0
	for _, ms := range s.shards {
		n += ms.Size()
	}
	return n
}

// Stats aggregates the occupancy of every shard. Peak is the sum of the
// shard peaks: an upper bound on arenas simultaneously alive.
func (s *Sharded) Stats() PoolStats {
	var agg PoolStats
	for _, ms := range s.shards {
		agg.add(ms.Stats())
	}
	return agg
}
