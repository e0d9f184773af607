package chol

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/tcdm"
)

// ReplicatedPlan runs whole small decompositions on every core: the MIMO
// use-case schedules thousands of independent 4x4 Cholesky factorizations
// (one per subcarrier). Rounds controls how many barrier-delimited phases
// run; PerRound how many decompositions each core performs between
// barriers. The paper's "4x256" configuration is Rounds=4, PerRound=1;
// "16x256" with a single barrier is Rounds=1, PerRound=16.
type ReplicatedPlan struct {
	N        int
	Cores    []int
	Rounds   int
	PerRound int
	// Pipelined runs decompositions in software-pipelined pairs so the
	// divide/sqrt latency of one matrix hides behind the other's MAC
	// streams (requires PerRound even).
	Pipelined bool

	m      *engine.Machine
	gBase  []arch.Addr // [core*Rounds*PerRound + rep] sequential inputs
	blocks []tcdm.TileBlock
}

// NewReplicatedPlan allocates inputs and folded outputs for coreCount
// cores each decomposing Rounds*PerRound matrices of size n.
func NewReplicatedPlan(m *engine.Machine, n, coreCount, rounds, perRound int) (*ReplicatedPlan, error) {
	switch {
	case n < 2:
		return nil, fmt.Errorf("chol: replicated size %d too small", n)
	case n > 4:
		return nil, fmt.Errorf("chol: replicated mode folds one matrix into a core's 4 banks; size %d > 4", n)
	case coreCount <= 0 || coreCount > m.Cfg.NumCores():
		return nil, fmt.Errorf("chol: %d cores requested, cluster has %d", coreCount, m.Cfg.NumCores())
	case rounds <= 0 || perRound <= 0:
		return nil, fmt.Errorf("chol: rounds %d and perRound %d must be positive", rounds, perRound)
	}
	// Every decomposition holds an n*n-word input in L1. Dividing the
	// word budget keeps coreCount*rounds*perRound from overflowing.
	if maxReps := m.Cfg.MemWords() / (coreCount * n * n); rounds > maxReps || perRound > maxReps/rounds {
		return nil, fmt.Errorf("chol: %d cores x %d rounds x %d per round of %dx%d inputs exceed the %d-word L1",
			coreCount, rounds, perRound, n, n, m.Cfg.MemWords())
	}
	pl := &ReplicatedPlan{N: n, Rounds: rounds, PerRound: perRound, m: m}
	pl.Cores = make([]int, coreCount)
	for i := range pl.Cores {
		pl.Cores[i] = i
	}
	reps := rounds * perRound
	pl.gBase = make([]arch.Addr, coreCount*reps)
	for i := range pl.gBase {
		base, err := m.Mem.AllocSeq(n * n)
		if err != nil {
			return nil, fmt.Errorf("chol: replicated input %d: %w", i, err)
		}
		pl.gBase[i] = base
	}
	// One folded block per tile: each core's 4 banks hold one matrix's
	// rows, one bank row per column per repetition.
	tiles := tilesOf(m.Cfg, pl.Cores)
	pl.blocks = make([]tcdm.TileBlock, m.Cfg.NumTiles())
	for _, tile := range tiles {
		blk, err := m.Mem.AllocTileLocal(tile, n*reps)
		if err != nil {
			return nil, fmt.Errorf("chol: replicated output tile %d: %w", tile, err)
		}
		pl.blocks[tile] = blk
	}
	return pl, nil
}

// rep indexes a (round, perRound) pair.
func (pl *ReplicatedPlan) rep(round, k int) int { return round*pl.PerRound + k }

// lAddr returns the folded address of L[i][c] of one repetition on one
// core: row i in bank i, column c at bank row rep*n+c.
func (pl *ReplicatedPlan) lAddr(core, rep, i, c int) arch.Addr {
	cfg := pl.m.Cfg
	tile := cfg.TileOfCore(core)
	bank := (core%cfg.CoresPerTile)*cfg.BanksPerCore + i
	return pl.blocks[tile].Addr(bank, rep*pl.N+c)
}

// WriteG stores the input matrix of one repetition on one lane.
func (pl *ReplicatedPlan) WriteG(lane, rep int, g []fixed.C15) error {
	if len(g) != pl.N*pl.N {
		return fmt.Errorf("chol: WriteG: %d elements, want %d", len(g), pl.N*pl.N)
	}
	base := pl.gBase[lane*pl.Rounds*pl.PerRound+rep]
	for i, v := range g {
		pl.m.Mem.Write(base+arch.Addr(i), uint32(v))
	}
	return nil
}

// ReadL returns the factor of one repetition on one lane.
func (pl *ReplicatedPlan) ReadL(lane, rep int) []fixed.C15 {
	core := pl.Cores[lane]
	out := make([]fixed.C15, pl.N*pl.N)
	for i := 0; i < pl.N; i++ {
		for k := 0; k <= i; k++ {
			out[i*pl.N+k] = fixed.C15(pl.m.Mem.Read(pl.lAddr(core, rep, i, k)))
		}
	}
	return out
}

// Decompose runs one full serial Crout factorization on a core: the
// primitive shared by the replicated plan, the serial baseline, and the
// chain's per-subcarrier MIMO stage. gAddr and lAddr map matrix indices
// to memory; the operation order matches phy.Cholesky bit for bit.
func Decompose(p *engine.Proc, n int, gAddr, lAddr func(i, c int) arch.Addr) {
	for j := 0; j < n; j++ {
		var sum engine.A
		p.Tick(6) // column prologue: folded row/bank address setup
		for k := 0; k < j; k++ {
			lk := p.Load(lAddr(j, k))
			sum = p.MacAbs2(sum, lk)
			p.Tick(2) // loop control + address step
		}
		g := p.Load(gAddr(j, j))
		pivot := p.AccSub(p.Widen(g), sum)
		d := p.SqrtRe(pivot)
		p.Store(lAddr(j, j), d)
		p.Tick(6)
		for i := j + 1; i < n; i++ {
			var acc engine.A
			p.Tick(6) // row prologue: both rows' bank addresses
			for k := 0; k < j; k++ {
				li, lj := p.Load2(lAddr(i, k), lAddr(j, k))
				acc = p.MacConj(acc, li, lj)
				p.Tick(2)
			}
			gij := p.Load(gAddr(i, j))
			num := p.AccSub(p.Widen(gij), acc)
			res := p.DivByRe(num, d)
			p.Store(lAddr(i, j), res)
			p.Tick(6)
		}
	}
}

// seqAddr builds an index function over a row-major matrix at base.
func seqAddr(base arch.Addr, n int) func(i, c int) arch.Addr {
	return func(i, c int) arch.Addr { return base + arch.Addr(i*n+c) }
}

// JobsList builds the single job: one phase per round, each decomposing
// PerRound matrices per core.
func (pl *ReplicatedPlan) JobsList() []engine.Job {
	phases := make([]engine.Phase, pl.Rounds)
	for round := range phases {
		r := round
		phases[round] = engine.Phase{
			Name:   fmt.Sprintf("round%d", r),
			Kernel: "chol/rep",
			Lines:  10,
			Work: func(p *engine.Proc) {
				core := pl.Cores[p.Lane]
				gOf := func(rep int) func(i, c int) arch.Addr {
					return seqAddr(pl.gBase[p.Lane*pl.Rounds*pl.PerRound+rep], pl.N)
				}
				lOf := func(rep int) func(i, c int) arch.Addr {
					return func(i, c int) arch.Addr { return pl.lAddr(core, rep, i, c) }
				}
				if pl.Pipelined {
					k := 0
					for ; k+1 < pl.PerRound; k += 2 {
						ra, rb := pl.rep(r, k), pl.rep(r, k+1)
						DecomposePipelined2(p, pl.N, gOf(ra), lOf(ra), gOf(rb), lOf(rb))
						p.Tick(2)
					}
					if k < pl.PerRound { // odd tail: plain decomposition
						rep := pl.rep(r, k)
						Decompose(p, pl.N, gOf(rep), lOf(rep))
						p.Tick(2)
					}
					return
				}
				for k := 0; k < pl.PerRound; k++ {
					rep := pl.rep(r, k)
					Decompose(p, pl.N, gOf(rep), lOf(rep))
					p.Tick(2)
				}
			},
		}
	}
	return []engine.Job{{
		Name:   fmt.Sprintf("chol%d-rep", pl.N),
		Cores:  pl.Cores,
		Phases: phases,
	}}
}

// Run executes the replicated decompositions.
func (pl *ReplicatedPlan) Run() error { return pl.m.Run(pl.JobsList()...) }

// SerialPlan decomposes count n-by-n matrices on one core with all data
// in sequential memory: the Fig. 9 baseline.
type SerialPlan struct {
	N     int
	Count int
	Core  int

	m     *engine.Machine
	gBase []arch.Addr
	lBase []arch.Addr
}

// NewSerialPlan allocates count serial decompositions of size n.
func NewSerialPlan(m *engine.Machine, core, n, count int) (*SerialPlan, error) {
	if n < 2 {
		return nil, fmt.Errorf("chol: size %d too small", n)
	}
	if count <= 0 {
		return nil, fmt.Errorf("chol: count %d must be positive", count)
	}
	// Each decomposition holds an n*n input and an n*n output in L1;
	// bounded by division, as in NewReplicatedPlan.
	if words := m.Cfg.MemWords(); n > words/n || count > words/(2*n*n) {
		return nil, fmt.Errorf("chol: %d serial %dx%d decompositions exceed the %d-word L1", count, n, n, words)
	}
	pl := &SerialPlan{N: n, Count: count, Core: core, m: m}
	pl.gBase = make([]arch.Addr, count)
	pl.lBase = make([]arch.Addr, count)
	for i := range pl.gBase {
		g, err := m.Mem.AllocSeq(n * n)
		if err != nil {
			return nil, fmt.Errorf("chol: serial input %d: %w", i, err)
		}
		l, err := m.Mem.AllocSeq(n * n)
		if err != nil {
			return nil, fmt.Errorf("chol: serial output %d: %w", i, err)
		}
		pl.gBase[i], pl.lBase[i] = g, l
	}
	return pl, nil
}

// WriteG stores one input matrix.
func (pl *SerialPlan) WriteG(rep int, g []fixed.C15) error {
	if len(g) != pl.N*pl.N {
		return fmt.Errorf("chol: WriteG: %d elements, want %d", len(g), pl.N*pl.N)
	}
	for i, v := range g {
		pl.m.Mem.Write(pl.gBase[rep]+arch.Addr(i), uint32(v))
	}
	return nil
}

// ReadL returns one factor.
func (pl *SerialPlan) ReadL(rep int) []fixed.C15 {
	out := make([]fixed.C15, pl.N*pl.N)
	for i := 0; i < pl.N; i++ {
		for k := 0; k <= i; k++ {
			out[i*pl.N+k] = fixed.C15(pl.m.Mem.Read(pl.lBase[rep] + arch.Addr(i*pl.N+k)))
		}
	}
	return out
}

// Job builds the single-core job.
func (pl *SerialPlan) Job() engine.Job {
	return engine.Job{
		Name:  fmt.Sprintf("chol%d-serial", pl.N),
		Cores: []int{pl.Core},
		Phases: []engine.Phase{{
			Name:   "all",
			Kernel: "chol/rep",
			Lines:  10,
			Work: func(p *engine.Proc) {
				for rep := 0; rep < pl.Count; rep++ {
					Decompose(p, pl.N, seqAddr(pl.gBase[rep], pl.N), seqAddr(pl.lBase[rep], pl.N))
					p.Tick(2)
				}
			},
		}},
	}
}

// Run executes the serial decompositions.
func (pl *SerialPlan) Run() error { return pl.m.Run(pl.Job()) }

// DecomposePipelined2 factors two independent matrices in software-
// pipelined fashion: the element work of matrix B issues while matrix
// A's divide/sqrt results are still in flight, hiding the iterative
// unit's latency that otherwise sits on the critical path of every
// column (the optimization behind the paper's 0.71 IPC replicated
// configuration). Results are bit-identical to two sequential
// Decompose calls, since the matrices are independent.
func DecomposePipelined2(p *engine.Proc, n int, gA, lA, gB, lB func(i, c int) arch.Addr) {
	for j := 0; j < n; j++ {
		// Diagonals: issue A's square root, overlap with B's MAC loop.
		p.Tick(6)
		var sumA engine.A
		for k := 0; k < j; k++ {
			sumA = p.MacAbs2(sumA, p.Load(lA(j, k)))
			p.Tick(2)
		}
		pivotA := p.AccSub(p.Widen(p.Load(gA(j, j))), sumA)
		dA := p.SqrtRe(pivotA)
		p.Tick(6)
		var sumB engine.A
		for k := 0; k < j; k++ {
			sumB = p.MacAbs2(sumB, p.Load(lB(j, k)))
			p.Tick(2)
		}
		pivotB := p.AccSub(p.Widen(p.Load(gB(j, j))), sumB)
		dB := p.SqrtRe(pivotB)
		p.Store(lA(j, j), dA) // A's result has landed during B's MACs
		p.Store(lB(j, j), dB)
		// Sub-diagonal rows, alternating matrices per element.
		for i := j + 1; i < n; i++ {
			p.Tick(6)
			var accA engine.A
			for k := 0; k < j; k++ {
				liA, ljA := p.Load2(lA(i, k), lA(j, k))
				accA = p.MacConj(accA, liA, ljA)
				p.Tick(2)
			}
			numA := p.AccSub(p.Widen(p.Load(gA(i, j))), accA)
			resA := p.DivByRe(numA, dA)
			p.Tick(6)
			var accB engine.A
			for k := 0; k < j; k++ {
				liB, ljB := p.Load2(lB(i, k), lB(j, k))
				accB = p.MacConj(accB, liB, ljB)
				p.Tick(2)
			}
			numB := p.AccSub(p.Widen(p.Load(gB(i, j))), accB)
			resB := p.DivByRe(numB, dB)
			p.Store(lA(i, j), resA) // hidden behind B's element
			p.Store(lB(i, j), resB)
			p.Tick(6)
		}
	}
}
