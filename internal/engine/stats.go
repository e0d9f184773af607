// Package engine is the cycle-approximate timing simulator for MemPool
// and TeraPool: Snitch-like single-issue cores with timestamped register
// values (RAW hazards), an 8-deep outstanding-load LSU, a non-pipelined
// divide/sqrt unit, per-tile shared instruction caches, banked-memory
// contention through tcdm reservations, and a fork-join runtime with
// hierarchical barriers and wake-up-CSR cost modeling.
//
// Kernels are ordinary Go functions that receive a *Proc and perform real
// fixed-point arithmetic through it; the engine advances a per-core cycle
// counter and attributes every cycle to an issue slot or a stall bucket,
// which is exactly the breakdown Fig. 8 of the paper reports.
//
// Determinism: the engine replays cores sequentially in core-ID order
// inside each phase, so bank arbitration is fixed-priority by core ID and
// every run is bit-reproducible. Phases must be data-race free across
// cores (the fork-join contract); enable Machine.DebugRaces in tests to
// verify that property.
//
// Machines are reusable: Machine.Reset restores the just-constructed
// state, and the Machines pool (plus its per-worker Sharded variant,
// with PoolStats occupancy counters) recycles the multi-MiB cluster
// arenas across the campaign sweeps, benchmarks and the slot-traffic
// scheduler that run many independent experiments per process.
package engine

// Stats accumulates per-core cycle and instruction counters. Every cycle
// a core spends inside a measured window lands either in Instrs (an issue
// slot) or in exactly one stall bucket, so the components sum to the
// elapsed window.
type Stats struct {
	Instrs int64 // issued instructions, one cycle each

	IAlu   int64 // integer/address/branch instruction issues
	Loads  int64 // load issues
	Stores int64 // store and atomic issues
	Mults  int64 // packed complex multiply/MAC issues
	Divs   int64 // divide/sqrt unit issues
	MACs   int64 // complex multiply-accumulate operations performed

	RawStalls    int64 // waiting for an operand still in flight
	LsuStalls    int64 // LSU full: waiting for an outstanding access
	ExtStalls    int64 // divide/sqrt unit busy
	WfiStalls    int64 // sleeping at a barrier
	ICacheStalls int64 // instruction-cache refills
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Instrs += other.Instrs
	s.IAlu += other.IAlu
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.Mults += other.Mults
	s.Divs += other.Divs
	s.MACs += other.MACs
	s.RawStalls += other.RawStalls
	s.LsuStalls += other.LsuStalls
	s.ExtStalls += other.ExtStalls
	s.WfiStalls += other.WfiStalls
	s.ICacheStalls += other.ICacheStalls
}

// addDiff adds a - b to s component-wise, in place, copying no Stats.
func (s *Stats) addDiff(a, b *Stats) {
	s.Instrs += a.Instrs - b.Instrs
	s.IAlu += a.IAlu - b.IAlu
	s.Loads += a.Loads - b.Loads
	s.Stores += a.Stores - b.Stores
	s.Mults += a.Mults - b.Mults
	s.Divs += a.Divs - b.Divs
	s.MACs += a.MACs - b.MACs
	s.RawStalls += a.RawStalls - b.RawStalls
	s.LsuStalls += a.LsuStalls - b.LsuStalls
	s.ExtStalls += a.ExtStalls - b.ExtStalls
	s.WfiStalls += a.WfiStalls - b.WfiStalls
	s.ICacheStalls += a.ICacheStalls - b.ICacheStalls
}

// StallTotal returns the sum of all stall buckets.
func (s Stats) StallTotal() int64 {
	return s.RawStalls + s.LsuStalls + s.ExtStalls + s.WfiStalls + s.ICacheStalls
}

// Busy returns issue plus stall cycles: the fully attributed time.
func (s Stats) Busy() int64 { return s.Instrs + s.StallTotal() }
