package engine

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/fixed"
)

// The bulk ops promise cycle- and stats-exact equivalence with the
// scalar Load/Store loops they replace. Both share issueWord's per-word
// timing, so what this file checks is the span plumbing — the bank walk,
// negative and zero strides, per-word operand waits and the single
// flush — as a property over randomized programs: for each generated
// program the scalar and bulk interpretations must leave two machines in
// identical states — every core's clock, every Stats field, every memory
// word, and the reservation table's contention counters.

const (
	opLoadVec = iota
	opStoreVec
	opGather
	opScatter
	opLoad2
)

// bulkOp is one step of a generated per-lane program.
type bulkOp struct {
	kind   int
	base   arch.Addr
	stride int
	addrs  []arch.Addr
	n      int
	tick   int // leading Tick to perturb clock/tax/LSU state
}

// propCfg derives a small cluster from MemPool's timing constants with
// custom geometry, so the property runs across different bank counts.
func propCfg(name string, groups, tpg, cpt, bpc int) *arch.Config {
	cfg := *arch.MemPool()
	cfg.Name = name
	cfg.Groups = groups
	cfg.TilesPerGroup = tpg
	cfg.CoresPerTile = cpt
	cfg.BanksPerCore = bpc
	cfg.BankWords = 64
	return &cfg
}

// genOps builds a random program whose addresses all land below limit
// (keeping clear of the engine's barrier rows in the top word row).
func genOps(rng *rand.Rand, limit int) []bulkOp {
	ops := make([]bulkOp, 2+rng.Intn(5))
	for i := range ops {
		op := bulkOp{kind: rng.Intn(5), tick: rng.Intn(4)}
		switch op.kind {
		case opLoadVec, opStoreVec:
			op.n = 1 + rng.Intn(12)
			op.stride = rng.Intn(9) - 4 // [-4, 4], 0 included
			span := (op.n - 1) * op.stride
			lo, hi := 0, limit-1
			if span >= 0 {
				hi -= span
			} else {
				lo -= span
			}
			op.base = arch.Addr(lo + rng.Intn(hi-lo+1))
		case opGather, opScatter:
			op.n = 1 + rng.Intn(6)
			op.addrs = make([]arch.Addr, op.n)
			for j := range op.addrs {
				op.addrs[j] = arch.Addr(rng.Intn(limit))
			}
		case opLoad2:
			op.addrs = []arch.Addr{arch.Addr(rng.Intn(limit)), arch.Addr(rng.Intn(limit))}
		}
		ops[i] = op
	}
	return ops
}

// progWork interprets per-lane programs as a phase body, either through
// the bulk ops or through the equivalent scalar loops. Store operands
// reuse previously loaded values (exercising in-flight waits) and fall
// back to immediates before the first load.
func progWork(progs [][]bulkOp, bulk bool) func(p *Proc) {
	return func(p *Proc) {
		var vals []W
		pick := func(i int) W {
			if len(vals) == 0 {
				return p.Imm(fixed.C15(0x00010002))
			}
			return vals[i%len(vals)]
		}
		for _, op := range progs[p.Lane] {
			p.Tick(op.tick)
			switch op.kind {
			case opLoadVec:
				dst := make([]W, op.n)
				if bulk {
					p.LoadVec(op.base, op.stride, dst)
				} else {
					for i := range dst {
						dst[i] = p.Load(op.base + arch.Addr(i*op.stride))
					}
				}
				vals = append(vals, dst...)
			case opStoreVec:
				src := make([]W, op.n)
				for i := range src {
					src[i] = pick(i)
				}
				if bulk {
					p.StoreVec(op.base, op.stride, src)
				} else {
					for i := range src {
						p.Store(op.base+arch.Addr(i*op.stride), src[i])
					}
				}
			case opGather:
				dst := make([]W, len(op.addrs))
				if bulk {
					p.LoadGather(op.addrs, dst)
				} else {
					for i, a := range op.addrs {
						dst[i] = p.Load(a)
					}
				}
				vals = append(vals, dst...)
			case opScatter:
				src := make([]W, len(op.addrs))
				for i := range src {
					src[i] = pick(i)
				}
				if bulk {
					p.StoreScatter(op.addrs, src)
				} else {
					for i, a := range op.addrs {
						p.Store(a, src[i])
					}
				}
			case opLoad2:
				var a, b W
				if bulk {
					a, b = p.Load2(op.addrs[0], op.addrs[1])
				} else {
					a = p.Load(op.addrs[0])
					b = p.Load(op.addrs[1])
				}
				vals = append(vals, a, b)
			}
		}
	}
}

// runProg interprets per-lane programs on m as three identical phases,
// then closes them with a cluster barrier.
func runProg(t *testing.T, m *Machine, cores []int, progs [][]bulkOp, bulk bool) {
	t.Helper()
	work := progWork(progs, bulk)
	ph := func(name string) Phase {
		return Phase{Name: name, Kernel: "prop/" + name, Work: work}
	}
	job := Job{Name: "prop", Cores: cores, Phases: []Phase{ph("a"), ph("b"), ph("c")}}
	if err := m.Run(job); err != nil {
		t.Fatal(err)
	}
	m.ClusterBarrier()
}

// TestBulkOpsMatchScalar is the equivalence property over randomized
// strides, spans, gather patterns, core sets and cluster geometries.
func TestBulkOpsMatchScalar(t *testing.T) {
	cfgs := []*arch.Config{
		propCfg("prop-2g", 2, 2, 2, 2), // 16 banks
		propCfg("prop-3g", 3, 2, 3, 3), // 54 banks, non-power-of-two
		arch.MemPool(),                 // 1024 banks
	}
	for _, cfg := range cfgs {
		rng := rand.New(rand.NewSource(7))
		ms := NewMachine(cfg) // scalar interpretation
		mb := NewMachine(cfg) // bulk interpretation
		// Keep generated addresses out of the barrier rows (top row).
		limit := (cfg.BankWords - 1) * cfg.NumBanks()
		ncores := cfg.NumCores()
		for cas := 0; cas < 12; cas++ {
			ms.Reset()
			mb.Reset()
			for a := 0; a < limit; a++ {
				v := uint32(a)*2654435761 + 1
				ms.Mem.Write(arch.Addr(a), v)
				mb.Mem.Write(arch.Addr(a), v)
			}
			// A random core set spanning tiles and groups.
			n := 1 + rng.Intn(min(ncores, 8))
			seen := map[int]bool{}
			var cores []int
			for len(cores) < n {
				c := rng.Intn(ncores)
				if !seen[c] {
					seen[c] = true
					cores = append(cores, c)
				}
			}
			progs := make([][]bulkOp, len(cores))
			for i := range progs {
				progs[i] = genOps(rng, limit)
			}
			runProg(t, ms, cores, progs, false)
			runProg(t, mb, cores, progs, true)
			for _, c := range cores {
				if ms.CoreTime(c) != mb.CoreTime(c) {
					t.Fatalf("%s case %d: core %d time scalar %d != bulk %d",
						cfg.Name, cas, c, ms.CoreTime(c), mb.CoreTime(c))
				}
				if ss, sb := ms.CoreStats(c), mb.CoreStats(c); ss != sb {
					t.Fatalf("%s case %d: core %d stats diverge:\nscalar %+v\nbulk   %+v",
						cfg.Name, cas, c, ss, sb)
				}
			}
			if ms.Mem.Res.Accesses() != mb.Mem.Res.Accesses() ||
				ms.Mem.Res.ConflictCycles() != mb.Mem.Res.ConflictCycles() {
				t.Fatalf("%s case %d: reservation counters diverge: scalar %d/%d, bulk %d/%d",
					cfg.Name, cas,
					ms.Mem.Res.Accesses(), ms.Mem.Res.ConflictCycles(),
					mb.Mem.Res.Accesses(), mb.Mem.Res.ConflictCycles())
			}
			for a := 0; a < limit; a++ {
				if vs, vb := ms.Mem.Read(arch.Addr(a)), mb.Mem.Read(arch.Addr(a)); vs != vb {
					t.Fatalf("%s case %d: word %d scalar %#x != bulk %#x", cfg.Name, cas, a, vs, vb)
				}
			}
		}
	}
}

// TestBulkOpsEmptyAndZeroStride pins the edge cases: empty spans are
// free, and a zero-stride span hammers one bank exactly like the scalar
// loop (serializing on the bank's reservation).
func TestBulkOpsEmptyAndZeroStride(t *testing.T) {
	m := NewMachine(arch.MemPool())
	err := m.Run(Job{Name: "e", Cores: []int{0}, Phases: []Phase{{
		Name: "p", Kernel: "e/p",
		Work: func(p *Proc) {
			before := p.Now()
			p.LoadVec(0, 1, nil)
			p.StoreVec(0, 1, nil)
			p.LoadGather(nil, nil)
			p.StoreScatter(nil, nil)
			if p.Now() != before {
				t.Errorf("empty bulk ops advanced the clock by %d", p.Now()-before)
			}
			var dst [4]W
			p.LoadVec(7, 0, dst[:])
			for i, w := range dst[1:] {
				if w.At <= dst[i].At {
					t.Errorf("zero-stride loads did not serialize on the bank: %v", dst)
				}
			}
		},
	}}})
	if err != nil {
		t.Fatal(err)
	}
}
