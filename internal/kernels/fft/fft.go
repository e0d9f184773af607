// Package fft implements the parallel radix-4 decimation-in-frequency FFT
// of Section V-A of the paper on the MemPool/TeraPool simulator.
//
// An N-point FFT (N a power of four, N >= 16) runs on N/16 cores; each
// core computes 4 butterflies per stage. The working set is "folded" into
// the tile-local banks: each lane's 16 stage inputs sit in its own 4
// banks (one bank per butterfly leg), so every load is a 1-cycle local
// access. After computing, a lane stores each output into the local banks
// of the lane that consumes it in the next stage — the redistribution
// stores of Fig. 5. Twiddle factors are replicated per lane at setup so
// twiddle loads are local too.
//
// Independent FFTs replicate over the remaining cores of the cluster and
// synchronize independently (partial barriers); batching runs the same
// stage of several independent FFTs between consecutive barriers to
// amortize synchronization, exactly as the paper's "16 independent FFTs
// run between barriers" configuration.
//
// The folded addresses are fixed once a plan is laid out, so the plan
// composes them once into per-lane tables: each butterfly's stage-load
// base, twiddle gather and redistribution scatter, and each input
// element's position. Stages read addresses from the tables; the
// simulated address-generation cost stays in each stage's Tick counts.
package fft

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/phy"
	"repro/internal/tcdm"
)

// Layout selects the data placement of the working buffers.
type Layout int

const (
	// Folded places each lane's working set in its tile-local banks
	// (the paper's optimized scheme).
	Folded Layout = iota
	// Interleaved leaves the working vectors spread sequentially over
	// the whole cluster memory; most accesses become remote. This is the
	// ablation baseline showing why folding matters.
	Interleaved
)

// stages returns log4(n), or -1 if n is not a power of four.
func stages(n int) int {
	s := 0
	for v := n; v > 1; v >>= 2 {
		if v&3 != 0 {
			return -1
		}
		s++
	}
	if n < 1 {
		return -1
	}
	return s
}

// Plan holds the memory layout and schedule for a set of independent
// N-point FFTs on one machine.
type Plan struct {
	N     int // FFT size in points
	S     int // number of radix-4 stages
	Lanes int // cores per FFT job (N/16)
	Jobs  int // independent lane sets
	Batch int // FFTs processed by one lane set between barriers
	Lay   Layout

	m        *engine.Machine
	twSeq    arch.Addr      // shared sequential twiddle table (serial + interleaved layout)
	outBase  []arch.Addr    // per FFT instance: sequential output buffer
	seqBufs  [][2]arch.Addr // [instance][pingpong] for Interleaved layout
	jobCores [][]int
	// laneBase holds, at job*Lanes+lane, the address of row 0 of the
	// lane's first bank in the folded block of the lane's tile, which
	// holds the ping and pong working sets and the twiddle replicas.
	// Partitions need not occupy contiguous tiles, so each lane's base
	// comes from its own tile's block.
	laneBase []arch.Addr
	twWords  []fixed.C15 // host copy of the twiddle table

	// Folded-layout address tables, composed once by buildTables from
	// foldedAddr and laneTwAddr. Butterfly k of a lane at stage s of a
	// job has index bf = pl.bfly(job, s, lane, k), stage-major; the
	// tables hold batch entry 0, and entry b sits b*batchStep words on.
	loadTab   []arch.Addr // [bf]: the butterfly's four input legs start here
	twTab     []arch.Addr // [3*bf+t]: its twiddle gather
	storeTab  []arch.Addr // [4*bf+leg], stages before the last: its redistribution scatter
	inTab     []arch.Addr // [job*N+i]: stage-0 position of input element i
	batchStep arch.Addr

	jobs []engine.Job // built by the first JobsList call
}

// rowsPerBuf returns the rows each lane's single ping or pong buffer
// occupies in its 4 banks for one batch entry (4 butterflies = 4 rows).
const rowsPerButterflySet = 4

// NewPlan allocates working memory for count independent n-point FFTs,
// where each lane set processes batch FFTs between barriers (count must
// be a multiple of batch). Lane sets use consecutive cores starting at
// core 0.
func NewPlan(m *engine.Machine, n, count, batch int, lay Layout) (*Plan, error) {
	return NewPlanOn(m, nil, n, count, batch, lay)
}

// NewPlanOn is NewPlan on an explicit core set: lane sets are carved
// from cores in order (cores[0..lanes) is job 0, and so on), so a chain
// layout can pin the FFT stage to its own partition of the cluster. A
// nil core set uses consecutive cores starting at core 0 — the whole
// cluster, exactly like NewPlan.
func NewPlanOn(m *engine.Machine, cores []int, n, count, batch int, lay Layout) (*Plan, error) {
	s := stages(n)
	if s < 2 {
		return nil, fmt.Errorf("fft: size %d is not a power of 4 >= 16", n)
	}
	if count <= 0 || batch <= 0 || count%batch != 0 {
		return nil, fmt.Errorf("fft: count %d must be a positive multiple of batch %d", count, batch)
	}
	cfg := m.Cfg
	lanes := n / 16
	jobs := count / batch
	capacity := cfg.NumCores()
	pool := "cluster"
	if cores != nil {
		capacity = len(cores)
		pool = "partition"
	}
	if jobs*lanes > capacity {
		return nil, fmt.Errorf("fft: %d FFTs of %d points need %d cores, %s has %d", count, n, jobs*lanes, pool, capacity)
	}
	pl := &Plan{
		N: n, S: s, Lanes: lanes, Jobs: jobs, Batch: batch, Lay: lay,
		m: m, twWords: phy.Twiddles(n),
	}
	// Shared sequential twiddle table (used by serial baselines and the
	// interleaved ablation; the folded layout uses per-lane replicas).
	twBase, err := m.Mem.AllocSeq(len(pl.twWords))
	if err != nil {
		return nil, fmt.Errorf("fft: twiddle table: %w", err)
	}
	pl.twSeq = twBase
	for k, w := range pl.twWords {
		m.Mem.Write(twBase+arch.Addr(k), uint32(w))
	}
	// Output buffers, one per FFT instance.
	pl.outBase = make([]arch.Addr, count)
	for f := range pl.outBase {
		base, err := m.Mem.AllocSeq(n)
		if err != nil {
			return nil, fmt.Errorf("fft: output %d: %w", f, err)
		}
		pl.outBase[f] = base
	}
	// Core assignment: lane sets carved from the core set in order.
	pl.jobCores = make([][]int, jobs)
	for j := range pl.jobCores {
		set := make([]int, lanes)
		for l := range set {
			if cores == nil {
				set[l] = j*lanes + l
			} else {
				set[l] = cores[j*lanes+l]
			}
		}
		pl.jobCores[j] = set
	}
	switch lay {
	case Folded:
		if err := pl.allocFolded(); err != nil {
			return nil, err
		}
	case Interleaved:
		pl.seqBufs = make([][2]arch.Addr, count)
		for f := range pl.seqBufs {
			a, err := m.Mem.AllocSeq(n)
			if err != nil {
				return nil, fmt.Errorf("fft: work buffer: %w", err)
			}
			b, err := m.Mem.AllocSeq(n)
			if err != nil {
				return nil, fmt.Errorf("fft: work buffer: %w", err)
			}
			pl.seqBufs[f] = [2]arch.Addr{a, b}
		}
	default:
		return nil, fmt.Errorf("fft: unknown layout %d", lay)
	}
	return pl, nil
}

// allocFolded reserves, for every tile hosting lanes of a job, the rows
// holding the ping/pong working sets and the per-lane twiddle replicas,
// in the order the job's lanes first reach each tile, and records every
// lane's base address in its tile's block.
func (pl *Plan) allocFolded() error {
	cfg := pl.m.Cfg
	// Rows per tile: ping + pong working sets (4 rows per batch entry
	// each) plus 3 twiddle rows per stage.
	rows := 2*rowsPerButterflySet*pl.Batch + 3*pl.S
	pl.laneBase = make([]arch.Addr, pl.Jobs*pl.Lanes)
	for j := 0; j < pl.Jobs; j++ {
		blocks := map[int]tcdm.TileBlock{}
		for lane, core := range pl.jobCores[j] {
			tile := cfg.TileOfCore(core)
			blk, ok := blocks[tile]
			if !ok {
				var err error
				if blk, err = pl.m.Mem.AllocTileLocal(tile, rows); err != nil {
					return fmt.Errorf("fft: folded buffer, job %d tile %d: %w", j, tile, err)
				}
				blocks[tile] = blk
			}
			pl.laneBase[j*pl.Lanes+lane] = blk.Addr(core%cfg.CoresPerTile*cfg.BanksPerCore, 0)
		}
	}
	pl.buildTables()
	pl.writeLaneTwiddles()
	return nil
}

// bfly returns the address-table index of butterfly k of lane at stage
// s of job. Stages are outermost, so the store table, which has no last
// stage, is a prefix of the index space.
func (pl *Plan) bfly(job, s, lane, k int) int {
	return ((s*pl.Jobs+job)*pl.Lanes+lane)*4 + k
}

// legs returns the element indexes of butterfly j's four legs at a
// stage with distance d.
func legs(j, d int) [4]int {
	i0 := j/d*4*d + j%d
	return [4]int{i0, i0 + d, i0 + 2*d, i0 + 3*d}
}

// buildTables composes the folded-layout address tables of batch entry
// 0, one allocation per table.
func (pl *Plan) buildTables() {
	perStage := pl.Jobs * pl.Lanes * 4
	pl.loadTab = make([]arch.Addr, pl.S*perStage)
	pl.twTab = make([]arch.Addr, 3*pl.S*perStage)
	pl.storeTab = make([]arch.Addr, 4*(pl.S-1)*perStage)
	pl.inTab = make([]arch.Addr, pl.Jobs*pl.N)
	pl.batchStep = rowsPerButterflySet * pl.m.Cfg.RowStride()
	for job := 0; job < pl.Jobs; job++ {
		for s := 0; s < pl.S; s++ {
			d := pl.N >> (2 * (s + 1))
			for lane := 0; lane < pl.Lanes; lane++ {
				for k := 0; k < 4; k++ {
					bf := pl.bfly(job, s, lane, k)
					ix := legs(lane*4+k, d)
					pl.loadTab[bf] = pl.foldedAddr(job, 0, s, ix[0])
					for t := range 3 {
						pl.twTab[3*bf+t] = pl.laneTwAddr(job, lane, s, k, t)
					}
					if s < pl.S-1 {
						for leg, i := range ix {
							pl.storeTab[4*bf+leg] = pl.foldedAddr(job, 0, s+1, i)
						}
					}
				}
			}
		}
		for i := 0; i < pl.N; i++ {
			pl.inTab[job*pl.N+i] = pl.foldedAddr(job, 0, 0, i)
		}
	}
}

// butterflyOf maps element index i at stage s (distance d = N/4^(s+1)) to
// its butterfly's lane, the element's leg, and the butterfly slot within
// the lane.
func (pl *Plan) butterflyOf(i, d int) (lane, leg, slot int) {
	q := i / (4 * d)
	leg = (i / d) & 3
	r := i % d
	j := q*d + r
	return j >> 2, leg, j & 3
}

// laneAddr returns the address of word (bank, row) of a lane's banks in
// its tile's folded block; the address map is linear in both.
func (pl *Plan) laneAddr(job, lane, bank, row int) arch.Addr {
	return pl.laneBase[job*pl.Lanes+lane] + arch.Addr(bank) + arch.Addr(row)*pl.m.Cfg.RowStride()
}

// foldedAddr returns the folded address of element i of the stage-s
// working buffer (pingpong selected by s&1) of batch entry b in job.
func (pl *Plan) foldedAddr(job, b, s, i int) arch.Addr {
	d := pl.N >> (2 * (s + 1))
	lane, leg, slot := pl.butterflyOf(i, d)
	row := (s&1)*rowsPerButterflySet*pl.Batch + b*rowsPerButterflySet + slot
	return pl.laneAddr(job, lane, leg, row)
}

// laneTwAddr returns the folded address of twiddle t (0..2) of butterfly
// k (0..3) at stage s for the given lane of a job.
func (pl *Plan) laneTwAddr(job, lane, s, k, t int) arch.Addr {
	idx := k*3 + t
	return pl.laneAddr(job, lane, idx&3, 2*rowsPerButterflySet*pl.Batch+s*3+idx>>2)
}

// twiddleIndexes returns the three twiddle exponents of butterfly j at a
// stage with distance d in an n-point FFT.
func twiddleIndexes(j, d, n int) (int, int, int) {
	r := j % d
	step := n / (4 * d)
	return r * step, 2 * r * step, 3 * r * step
}

// writeLaneTwiddles fills the per-lane twiddle replicas (host setup,
// untimed: the paper assumes coefficients are resident in L1).
func (pl *Plan) writeLaneTwiddles() {
	for job := 0; job < pl.Jobs; job++ {
		for s := 0; s < pl.S; s++ {
			d := pl.N >> (2 * (s + 1))
			for lane := 0; lane < pl.Lanes; lane++ {
				for k := 0; k < 4; k++ {
					i1, i2, i3 := twiddleIndexes(lane*4+k, d, pl.N)
					bf := pl.bfly(job, s, lane, k)
					for t, idx := range [3]int{i1, i2, i3} {
						pl.m.Mem.Write(pl.twTab[3*bf+t], uint32(pl.twWords[idx]))
					}
				}
			}
		}
	}
}

// instance returns the global FFT index of batch entry b of job.
func (pl *Plan) instance(job, b int) int { return job*pl.Batch + b }

// WriteInput places the n input samples of one FFT instance into the
// stage-0 working buffer (host write, untimed).
func (pl *Plan) WriteInput(job, b int, x []fixed.C15) error {
	if len(x) != pl.N {
		return fmt.Errorf("fft: WriteInput: %d samples, want %d", len(x), pl.N)
	}
	if pl.Lay == Folded {
		off := arch.Addr(b) * pl.batchStep
		for i, a := range pl.inTab[job*pl.N : (job+1)*pl.N] {
			pl.m.Mem.Write(a+off, uint32(x[i]))
		}
		return nil
	}
	base := pl.seqBufs[pl.instance(job, b)][0]
	for i, v := range x {
		pl.m.Mem.Write(base+arch.Addr(i), uint32(v))
	}
	return nil
}

// ReadOutput returns the spectrum of one FFT instance in natural order
// (host read, untimed).
func (pl *Plan) ReadOutput(job, b int) []fixed.C15 {
	out := make([]fixed.C15, pl.N)
	base := pl.outBase[pl.instance(job, b)]
	for i := range out {
		out[i] = fixed.C15(pl.m.Mem.Read(base + arch.Addr(i)))
	}
	return out
}

// stageWork returns the work function of stage s for one job.
func (pl *Plan) stageWork(job, s int) func(p *engine.Proc) {
	d := pl.N >> (2 * (s + 1))
	last := s == pl.S-1
	return func(p *engine.Proc) {
		for b := 0; b < pl.Batch; b++ {
			off := arch.Addr(b) * pl.batchStep
			for k := 0; k < 4; k++ {
				j := p.Lane*4 + k
				bf := pl.bfly(job, s, p.Lane, k)
				// Load-address generation: the folded layout decomposes
				// each logical index into (lane, leg, slot) and then into
				// (tile, bank, row), costing real integer arithmetic per
				// element (the paper's kernels do the same in C). The
				// host reads the result from the plan's tables.
				p.Tick(18)
				// Element loads: tile-local in the folded layout. The four
				// legs of one butterfly land on the four consecutive banks
				// of the lane's core (foldedAddr keeps lane and slot fixed
				// while leg selects the bank), so the folded case is a
				// unit-stride span; the interleaved case strides by d.
				var el [4]engine.W
				if pl.Lay == Folded {
					p.LoadSpan(pl.loadTab[bf]+off, el[:])
				} else {
					buf := pl.seqBufs[pl.instance(job, b)][s&1]
					p.LoadVec(buf+arch.Addr(legs(j, d)[0]), d, el[:])
				}
				wa, wb, wc, we := el[0], el[1], el[2], el[3]
				// Twiddle loads: the folded replicas wrap across bank rows
				// (gather); the interleaved exponents x1, 2*x1, 3*x1 form a
				// stride-x1 vector (degenerating to a same-bank triple when
				// the butterfly needs only W^0).
				var tw [3]engine.W
				if pl.Lay == Folded {
					p.LoadGather(pl.twTab[3*bf:3*bf+3], tw[:])
				} else {
					x1, _, _ := twiddleIndexes(j, d, pl.N)
					p.LoadVec(pl.twSeq+arch.Addr(x1), x1, tw[:])
				}
				w1, w2, w3 := tw[0], tw[1], tw[2]
				y0, y1, y2, y3 := butterfly(p, wa, wb, wc, we, w1, w2, w3)
				// Store-address generation: the redistribution targets
				// (next stage's folded placement, or the digit-reversed
				// output position) are recomputed per element.
				p.Tick(16)
				// Redistribution stores: into the next stage's folded
				// layout, or digit-reversed into the output on the last
				// stage.
				ys := [4]engine.W{y0, y1, y2, y3}
				if last {
					// Last stage: d == 1, so the legs are the four base-4
					// digits' worth apart after reversal — a stride-N/4
					// vector from the reversed position of the first leg.
					out := pl.outBase[pl.instance(job, b)]
					p.StoreVec(out+arch.Addr(phy.DigitReverse4(legs(j, d)[0], pl.N)), pl.N/4, ys[:])
				} else if pl.Lay == Folded {
					// The next stage's folded placement redistributes the
					// legs irregularly across tiles: a scatter.
					var sa [4]arch.Addr
					for leg, a := range pl.storeTab[4*bf : 4*bf+4] {
						sa[leg] = a + off
					}
					p.StoreScatter(sa[:], ys[:])
				} else {
					buf := pl.seqBufs[pl.instance(job, b)][(s+1)&1]
					p.StoreVec(buf+arch.Addr(legs(j, d)[0]), d, ys[:])
				}
				p.Tick(2) // loop control and address increments
			}
		}
	}
}

// butterfly evaluates the scaled radix-4 DIF butterfly through the
// engine, mirroring phy.Butterfly4 operation for operation so results are
// bit-identical to the serial golden model.
func butterfly(p *engine.Proc, a, b, c, e, w1, w2, w3 engine.W) (y0, y1, y2, y3 engine.W) {
	t0 := p.CAddW(a, c)
	t1 := p.CSubW(a, c)
	t2 := p.CAddW(b, e)
	t3 := p.AccMulNegJ(p.CSubW(b, e))
	y0 = p.Narrow(p.AccAdd(t0, t2), 2)
	y1 = p.MulTw(p.AccAdd(t1, t3), w1, 2)
	y2 = p.MulTw(p.AccSub(t0, t2), w2, 2)
	y3 = p.MulTw(p.AccSub(t1, t3), w3, 2)
	return y0, y1, y2, y3
}

// JobsList returns the engine jobs for the planned FFTs: one job per
// lane set, one phase per stage (batched FFTs share each phase). They
// are built on the first call and shared by every later one, so callers
// must not modify them in place.
func (pl *Plan) JobsList() []engine.Job {
	if pl.jobs != nil {
		return pl.jobs
	}
	pl.jobs = make([]engine.Job, pl.Jobs)
	for j := range pl.jobs {
		phases := make([]engine.Phase, pl.S)
		for s := range phases {
			phases[s] = engine.Phase{
				Name:       fmt.Sprintf("stage%d", s),
				Kernel:     "fft/stage",
				Lines:      12,
				FetchEvery: 6, // the unrolled butterfly body overflows the L0 buffer
				Work:       pl.stageWork(j, s),
			}
		}
		pl.jobs[j] = engine.Job{
			Name:   fmt.Sprintf("fft%d[%d]", pl.N, j),
			Cores:  pl.jobCores[j],
			Phases: phases,
		}
	}
	return pl.jobs
}

// Run executes the planned FFTs on the machine.
func (pl *Plan) Run() error { return pl.m.Run(pl.JobsList()...) }

// OutBase returns the base address of one FFT instance's output buffer.
// Instances are allocated contiguously, so OutBase(0) addresses the
// concatenation of all instance outputs: the column-major antenna matrix
// the beamforming stage consumes.
func (pl *Plan) OutBase(instance int) arch.Addr { return pl.outBase[instance] }

// JobCores returns the cores of one lane set (for measurement scoping).
func (pl *Plan) JobCores(job int) []int {
	return append([]int(nil), pl.jobCores[job]...)
}
