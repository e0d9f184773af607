// Package chol implements the Cholesky decomposition kernels of Section
// V-C of the paper: the Cholesky-Crout algorithm computed column by
// column, with
//
//   - a fine-grained parallel mode (PairPlan) where each core owns 4 rows
//     of the output matrix, rows are folded so each lives in a single
//     bank, and two mirrored instances run together so the staircase
//     workload balances across cores;
//   - a replicated mode (ReplicatedPlan) where every core decomposes
//     whole small matrices (the 4x4 case of the MIMO stage), with a
//     configurable number of decompositions between barriers;
//   - a serial baseline (SerialPlan) for the Fig. 9 speedup reference.
//
// The arithmetic follows phy.Cholesky operation for operation, so all
// modes produce bit-identical factors to the golden model.
package chol

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/tcdm"
)

// PairPlan decomposes 2*Pairs Hermitian positive-definite N-by-N matrices:
// each pair of instances shares N/4 cores with mirrored row ownership.
type PairPlan struct {
	N     int // matrix size (multiple of 4)
	Pairs int
	Lanes int // cores per pair (N/4)

	m      *engine.Machine
	gBase  [][2]arch.Addr     // [pair][instance] input matrices, sequential
	blocks [][]tcdm.TileBlock // [pair][tileInPair] folded output storage
	cores  [][]int            // [pair] core ids
}

// NewPairPlan allocates storage for pairs mirrored fine-grained
// decompositions of size n.
func NewPairPlan(m *engine.Machine, n, pairs int) (*PairPlan, error) {
	if n < 4 || n%4 != 0 {
		return nil, fmt.Errorf("chol: size %d must be a positive multiple of 4", n)
	}
	if pairs <= 0 {
		return nil, fmt.Errorf("chol: pairs %d must be positive", pairs)
	}
	lanes := n / 4
	if pairs > m.Cfg.NumCores()/lanes { // divided: pairs*lanes can overflow
		return nil, fmt.Errorf("chol: %d pairs of size %d need %d cores, cluster has %d",
			pairs, n, pairs*lanes, m.Cfg.NumCores())
	}
	pl := &PairPlan{N: n, Pairs: pairs, Lanes: lanes, m: m}
	pl.gBase = make([][2]arch.Addr, pairs)
	pl.blocks = make([][]tcdm.TileBlock, pairs)
	pl.cores = make([][]int, pairs)
	for pr := 0; pr < pairs; pr++ {
		for q := 0; q < 2; q++ {
			base, err := m.Mem.AllocSeq(n * n)
			if err != nil {
				return nil, fmt.Errorf("chol: input %d/%d: %w", pr, q, err)
			}
			pl.gBase[pr][q] = base
		}
		cores := make([]int, lanes)
		for l := range cores {
			cores[l] = pr*lanes + l
		}
		pl.cores[pr] = cores
		tiles := tilesOf(m.Cfg, cores)
		blocks := make([]tcdm.TileBlock, len(tiles))
		for ti, tile := range tiles {
			// Each lane's 4 banks hold its 4 rows; a row needs n words
			// (one per column) per instance.
			blk, err := m.Mem.AllocTileLocal(tile, 2*n)
			if err != nil {
				return nil, fmt.Errorf("chol: output block pair %d tile %d: %w", pr, tile, err)
			}
			blocks[ti] = blk
		}
		pl.blocks[pr] = blocks
	}
	return pl, nil
}

func tilesOf(cfg *arch.Config, cores []int) []int {
	seen := make(map[int]bool)
	var tiles []int
	for _, c := range cores {
		t := cfg.TileOfCore(c)
		if !seen[t] {
			seen[t] = true
			tiles = append(tiles, t)
		}
	}
	return tiles
}

// ownerLane returns the lane owning row i of instance q (instance 1 is
// mirrored so the bottom rows belong to the first lanes).
func (pl *PairPlan) ownerLane(q, i int) int {
	if q == 0 {
		return i / 4
	}
	return pl.Lanes - 1 - i/4
}

// lAddr returns the folded address of L[i][k] of instance q in a pair:
// the whole row i lives in one bank of its owner's tile.
func (pl *PairPlan) lAddr(pair, q, i, k int) arch.Addr {
	cfg := pl.m.Cfg
	lane := pl.ownerLane(q, i)
	core := pl.cores[pair][lane]
	tile := cfg.TileOfCore(core)
	ti := tile - cfg.TileOfCore(pl.cores[pair][0])
	bank := (core%cfg.CoresPerTile)*cfg.BanksPerCore + i%4
	row := q*pl.N + k
	return pl.blocks[pair][ti].Addr(bank, row)
}

// WriteG stores one input matrix (host write, untimed).
func (pl *PairPlan) WriteG(pair, q int, g []fixed.C15) error {
	if len(g) != pl.N*pl.N {
		return fmt.Errorf("chol: WriteG: %d elements, want %d", len(g), pl.N*pl.N)
	}
	for i, v := range g {
		pl.m.Mem.Write(pl.gBase[pair][q]+arch.Addr(i), uint32(v))
	}
	return nil
}

// ReadL returns the factor of one instance with zeros above the diagonal
// (host read, untimed).
func (pl *PairPlan) ReadL(pair, q int) []fixed.C15 {
	out := make([]fixed.C15, pl.N*pl.N)
	for i := 0; i < pl.N; i++ {
		for k := 0; k <= i; k++ {
			out[i*pl.N+k] = fixed.C15(pl.m.Mem.Read(pl.lAddr(pair, q, i, k)))
		}
	}
	return out
}

// subDiag computes L[i][j] for one row in phase j+1.
func (pl *PairPlan) subDiag(p *engine.Proc, pair, q, i, j int, den engine.W) {
	var sum engine.A
	// Stagger the dot-product start per lane so the lanes scanning row j
	// (all stored in one bank) do not walk it in lockstep. The sum is
	// exact in Q2.30, so reordering cannot change the result.
	off := 0
	if j > 0 {
		off = (4 * p.Lane) % j
	}
	p.Tick(6) // row prologue: folded bank addresses for both rows
	for kk := 0; kk < j; kk++ {
		k := kk + off
		if k >= j {
			k -= j
		}
		li, lj := p.Load2(pl.lAddr(pair, q, i, k), pl.lAddr(pair, q, j, k))
		sum = p.MacConj(sum, li, lj)
		p.Tick(2) // loop control + staggered index step
	}
	g := p.Load(pl.gBase[pair][q] + arch.Addr(i*pl.N+j))
	num := p.AccSub(p.Widen(g), sum)
	res := p.DivByRe(num, den)
	p.Store(pl.lAddr(pair, q, i, j), res)
	p.Tick(6)
}

// diag computes L[t][t] in the phase after column t-1 completes.
func (pl *PairPlan) diag(p *engine.Proc, pair, q, t int) {
	var sum engine.A
	p.Tick(6) // diagonal prologue
	for k := 0; k < t; k++ {
		lk := p.Load(pl.lAddr(pair, q, t, k))
		sum = p.MacAbs2(sum, lk)
		p.Tick(2)
	}
	g := p.Load(pl.gBase[pair][q] + arch.Addr(t*pl.N+t))
	pivot := p.AccSub(p.Widen(g), sum)
	d := p.SqrtRe(pivot)
	p.Store(pl.lAddr(pair, q, t, t), d)
	p.Tick(6)
}

// phaseWork builds the phase-t body: sub-diagonal of column t-1 plus the
// diagonal of column t, for both mirrored instances.
func (pl *PairPlan) phaseWork(pair, t int) func(p *engine.Proc) {
	return func(p *engine.Proc) {
		for q := 0; q < 2; q++ {
			if j := t - 1; j >= 0 {
				// Rows this lane owns with i > j.
				var rows [4]int
				n := 0
				for r := 0; r < 4; r++ {
					var i int
					if q == 0 {
						i = p.Lane*4 + r
					} else {
						i = (pl.Lanes-1-p.Lane)*4 + r
					}
					if i > j {
						rows[n] = i
						n++
					}
				}
				if n > 0 {
					den := p.Load(pl.lAddr(pair, q, j, j))
					for _, i := range rows[:n] {
						pl.subDiag(p, pair, q, i, j, den)
					}
				}
			}
			if t < pl.N && pl.ownerLane(q, t) == p.Lane {
				pl.diag(p, pair, q, t)
			}
		}
	}
}

// JobsList builds one job per pair, with one phase per column.
func (pl *PairPlan) JobsList() []engine.Job {
	jobs := make([]engine.Job, pl.Pairs)
	for pr := range jobs {
		phases := make([]engine.Phase, pl.N)
		for t := range phases {
			phases[t] = engine.Phase{
				Name:   fmt.Sprintf("col%d", t),
				Kernel: "chol/col",
				Lines:  10,
				Work:   pl.phaseWork(pr, t),
			}
		}
		jobs[pr] = engine.Job{
			Name:   fmt.Sprintf("chol%d[%d]", pl.N, pr),
			Cores:  pl.cores[pr],
			Phases: phases,
		}
	}
	return jobs
}

// Run executes all pairs.
func (pl *PairPlan) Run() error { return pl.m.Run(pl.JobsList()...) }
