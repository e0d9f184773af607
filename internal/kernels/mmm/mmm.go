// Package mmm implements the matrix-matrix multiplication kernel of
// Section V-B of the paper: output computed in 4x4 register windows (8
// loads of packed 32-bit words per 16 complex MACs), rows of A assigned
// to cores so same-tile cores touch different groups, and the middle
// (column) loop start-shifted per core so same-tile cores never stream
// the same B banks in lockstep.
//
// Matrices live in sequential interleaved layout ("unrolled over the
// whole memory"). A is m-by-n, B is n-by-p, C is m-by-p, all row-major
// packed Q1.15; products accumulate in Q2.30 and are scaled by 2^-shift
// when written back.
//
// The window shape is parameterized (4x4, 4x2, 2x2) to reproduce the
// paper's register-blocking argument as an ablation: smaller windows
// need more loads per MAC and lose throughput.
package mmm

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
)

// Window is the output register-block shape.
type Window struct {
	Rows, Cols int
}

// Standard window shapes from the paper's Section V-B analysis.
var (
	Win4x4 = Window{4, 4} // 8 loads / 16 MACs, the optimized choice
	Win4x2 = Window{4, 2} // 6 loads / 8 MACs
	Win2x2 = Window{2, 2} // 4 loads / 4 MACs
)

// Options tune the kernel schedule.
type Options struct {
	// Window is the output block shape (default Win4x4).
	Window Window
	// Shift scales the accumulator on write-back by 2^-Shift. Zero means
	// ceil(log2(n)), which guarantees no saturation.
	Shift uint
	// NoStagger disables the per-core column start shift (ablation: the
	// paper's conflict-avoidance trick turned off).
	NoStagger bool
	// ZeroShift forces Shift = 0 (callers whose inputs are known small,
	// such as the beamforming stage fed by the scaled FFT output).
	ZeroShift bool
	// AExternal, when non-nil, uses an existing buffer as matrix A
	// instead of allocating one: how the chain feeds FFT output into the
	// beamforming MMM without a copy.
	AExternal *arch.Addr
	// ATransposed marks A as stored column-major (a[k*m+i]), the natural
	// layout of per-antenna FFT output blocks.
	ATransposed bool
	// CExternal, when non-nil, uses an existing buffer for the product.
	CExternal *arch.Addr
}

// Plan holds the layout and schedule of one MMM.
type Plan struct {
	M, N, P int
	Opt     Options
	Cores   []int

	m       *engine.Machine
	aBase   arch.Addr
	bBase   arch.Addr
	cBase   arch.Addr
	blocksM int
	blocksP int

	// laneRows and laneCols hold each lane's row blocks and ordered
	// column blocks, fixed at plan time.
	laneRows, laneCols [][]int
	job                engine.Job // built by the first Job call
}

// NewPlan allocates matrices for an m-by-n times n-by-p product executed
// on the given number of cores (1 = the serial baseline). m must be a
// multiple of the window rows and p of the window columns.
func NewPlan(mach *engine.Machine, m, n, p, cores int, opt Options) (*Plan, error) {
	if cores <= 0 || cores > mach.Cfg.NumCores() {
		return nil, fmt.Errorf("mmm: %d cores requested, cluster has %d", cores, mach.Cfg.NumCores())
	}
	set := make([]int, cores)
	for i := range set {
		set[i] = i
	}
	return NewPlanOn(mach, set, m, n, p, opt)
}

// NewPlanOn is NewPlan on an explicit core set instead of the first
// `cores` cores of the cluster, so a chain layout can pin the
// beamforming product to its own partition.
func NewPlanOn(mach *engine.Machine, cores []int, m, n, p int, opt Options) (*Plan, error) {
	if opt.Window.Rows == 0 {
		opt.Window = Win4x4
	}
	w := opt.Window
	switch {
	case m <= 0 || n <= 0 || p <= 0:
		return nil, fmt.Errorf("mmm: dimensions %dx%dx%d must be positive", m, n, p)
	case m%w.Rows != 0:
		return nil, fmt.Errorf("mmm: m=%d not a multiple of window rows %d", m, w.Rows)
	case p%w.Cols != 0:
		return nil, fmt.Errorf("mmm: p=%d not a multiple of window cols %d", p, w.Cols)
	case len(cores) == 0 || len(cores) > mach.Cfg.NumCores():
		return nil, fmt.Errorf("mmm: %d cores requested, cluster has %d", len(cores), mach.Cfg.NumCores())
	}
	if opt.ZeroShift {
		opt.Shift = 0
	} else if opt.Shift == 0 {
		for 1<<opt.Shift < n {
			opt.Shift++
		}
	}
	pl := &Plan{
		M: m, N: n, P: p, Opt: opt, m: mach,
		blocksM: m / w.Rows, blocksP: p / w.Cols,
	}
	var err error
	if opt.AExternal != nil {
		pl.aBase = *opt.AExternal
	} else if pl.aBase, err = mach.Mem.AllocSeq(m * n); err != nil {
		return nil, fmt.Errorf("mmm: matrix A: %w", err)
	}
	if pl.bBase, err = mach.Mem.AllocSeq(n * p); err != nil {
		return nil, fmt.Errorf("mmm: matrix B: %w", err)
	}
	if opt.CExternal != nil {
		pl.cBase = *opt.CExternal
	} else if pl.cBase, err = mach.Mem.AllocSeq(m * p); err != nil {
		return nil, fmt.Errorf("mmm: matrix C: %w", err)
	}
	pl.Cores = append([]int(nil), cores...)
	pl.planLanes()
	return pl, nil
}

// aAddr returns the address of A[i][k] honoring the layout option.
func (pl *Plan) aAddr(i, k int) arch.Addr {
	if pl.Opt.ATransposed {
		return pl.aBase + arch.Addr(k*pl.M+i)
	}
	return pl.aBase + arch.Addr(i*pl.N+k)
}

// WriteA stores matrix A in row-major order (host write, untimed),
// honoring the transposed layout if configured.
func (pl *Plan) WriteA(a []fixed.C15) error {
	if len(a) != pl.M*pl.N {
		return fmt.Errorf("mmm: WriteA: %d elements, want %d", len(a), pl.M*pl.N)
	}
	for i := 0; i < pl.M; i++ {
		for k := 0; k < pl.N; k++ {
			pl.m.Mem.Write(pl.aAddr(i, k), uint32(a[i*pl.N+k]))
		}
	}
	return nil
}

// WriteB stores matrix B (host write, untimed).
func (pl *Plan) WriteB(b []fixed.C15) error {
	if len(b) != pl.N*pl.P {
		return fmt.Errorf("mmm: WriteB: %d elements, want %d", len(b), pl.N*pl.P)
	}
	for i, v := range b {
		pl.m.Mem.Write(pl.bBase+arch.Addr(i), uint32(v))
	}
	return nil
}

// ReadC returns the product matrix (host read, untimed).
func (pl *Plan) ReadC() []fixed.C15 {
	out := make([]fixed.C15, pl.M*pl.P)
	for i := range out {
		out[i] = fixed.C15(pl.m.Mem.Read(pl.cBase + arch.Addr(i)))
	}
	return out
}

// planLanes fixes every lane's row and column blocks, so the kernel
// body computes no schedule and allocates nothing when it runs.
func (pl *Plan) planLanes() {
	lanes := len(pl.Cores)
	pl.laneRows = make([][]int, lanes)
	pl.laneCols = make([][]int, lanes)
	var flat []int // shared backing; views of an outgrown array stay valid
	for lane := range lanes {
		lo := len(flat)
		flat = pl.appendRowBlocks(flat, lane, lanes)
		mid := len(flat)
		flat = pl.appendColBlocks(flat, lane, lanes)
		pl.laneRows[lane], pl.laneCols[lane] = flat[lo:mid:mid], flat[mid:len(flat):len(flat)]
	}
}

// appendRowBlocks appends the row-block indexes assigned to a lane:
// lanes cover row blocks round-robin, so same-tile lanes (consecutive
// ids) land on different row blocks, whose rows live in different
// groups.
func (pl *Plan) appendRowBlocks(dst []int, lane, lanes int) []int {
	if lanes >= pl.blocksM {
		return append(dst, lane%pl.blocksM)
	}
	for rb := lane; rb < pl.blocksM; rb += lanes {
		dst = append(dst, rb)
	}
	return dst
}

// appendColBlocks appends the ordered column-block list for a lane
// working on one row block. Lanes sharing a row block partition the
// column blocks; the start of the sequence is rotated by the lane's
// position within its tile unless staggering is disabled.
func (pl *Plan) appendColBlocks(dst []int, lane, lanes int) []int {
	rank := 0
	cnt := 1
	if lanes >= pl.blocksM {
		rank = lane / pl.blocksM
		cnt = lanes / pl.blocksM
		if rem := lanes % pl.blocksM; rem != 0 && lane%pl.blocksM < rem {
			cnt++
		}
	}
	n := 0 // blocks rank, rank+cnt, ... below blocksP
	if rank < pl.blocksP {
		n = (pl.blocksP - rank + cnt - 1) / cnt
	}
	rot := 0
	if n > 0 && !pl.Opt.NoStagger {
		rot = (pl.Cores[lane] % pl.m.Cfg.CoresPerTile) % n
	}
	for i := range n {
		dst = append(dst, rank+(i+rot)%n*cnt)
	}
	return dst
}

// work is the per-core kernel body.
func (pl *Plan) work(p *engine.Proc) {
	w := pl.Opt.Window
	// Fixed-capacity window scratch (the largest window is 4x4) so the
	// per-core body allocates nothing on the host.
	var accBuf [16]engine.A
	var avBuf, bvBuf [4]engine.W
	acc := accBuf[:w.Rows*w.Cols]
	av := avBuf[:w.Rows]
	bv := bvBuf[:w.Cols]
	// A's window column is a stride-N vector row-major (consecutive rows
	// of one column) and unit-stride when A is stored transposed; B's
	// window row is always a unit-stride span of row k.
	strideA := pl.N
	if pl.Opt.ATransposed {
		strideA = 1
	}
	for _, rb := range pl.laneRows[p.Lane] {
		for _, cb := range pl.laneCols[p.Lane] {
			for i := range acc {
				acc[i] = engine.A{}
			}
			p.Tick(2) // window prologue: base address setup
			for k := 0; k < pl.N; k++ {
				p.LoadVec(pl.aAddr(rb*w.Rows, k), strideA, av)
				p.LoadSpan(pl.bBase+arch.Addr(k*pl.P+cb*w.Cols), bv)
				for r := 0; r < w.Rows; r++ {
					for c := 0; c < w.Cols; c++ {
						acc[r*w.Cols+c] = p.Mac(acc[r*w.Cols+c], av[r], bv[c])
					}
				}
				p.Tick(1) // k-loop control
			}
			// Write back the window.
			for r := 0; r < w.Rows; r++ {
				for c := 0; c < w.Cols; c++ {
					out := p.Narrow(acc[r*w.Cols+c], pl.Opt.Shift)
					p.Store(pl.cBase+arch.Addr((rb*w.Rows+r)*pl.P+cb*w.Cols+c), out)
				}
				p.Tick(1) // row address step
			}
		}
	}
}

// Job returns the engine job executing the product on the plan's cores.
// It is built on the first call; later calls return copies sharing its
// phase slice, which callers must not modify in place.
func (pl *Plan) Job() engine.Job {
	if pl.job.Phases == nil {
		pl.job = engine.Job{
			Name:  fmt.Sprintf("mmm%dx%dx%d", pl.M, pl.N, pl.P),
			Cores: pl.Cores,
			Phases: []engine.Phase{{
				Name:       "mmm",
				Kernel:     fmt.Sprintf("mmm/%dx%d", pl.Opt.Window.Rows, pl.Opt.Window.Cols),
				Lines:      10,
				FetchEvery: 12, // tight register-blocked inner loop mostly fits L0
				Work:       pl.work,
			}},
		}
	}
	return pl.job
}

// Run executes the product.
func (pl *Plan) Run() error { return pl.m.Run(pl.Job()) }

// CBase returns the base address of the product matrix, letting
// downstream stages (channel estimation, MIMO detection) read the
// beamformed grid in place.
func (pl *Plan) CBase() arch.Addr { return pl.cBase }

// ABase returns the base address of matrix A.
func (pl *Plan) ABase() arch.Addr { return pl.aBase }
