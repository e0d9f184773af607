package engine

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/fixed"
)

// W is a 32-bit register value (usually a packed complex Q1.15 sample)
// tagged with the cycle at which it becomes readable. Consuming a W whose
// At lies in the future stalls the core (RAW stall). The field order
// packs a W into 16 bytes (B and Mem fit in the 8 bytes before At), so
// the W arrays kernels stage copy no padding.
type W struct {
	B fixed.C15
	// Mem marks the value as produced by a load; waiting on it is then
	// attributed to the LSU stall bucket rather than RAW.
	Mem bool
	At  int64
}

// A is a widening complex accumulator (Q2.30 per component) held in a
// register pair, tagged like W. MAC chains forward internally, so
// back-to-back MACs into the same accumulator do not stall; reading the
// accumulator with a non-MAC operation waits for At.
type A struct {
	Acc fixed.Acc
	At  int64
}

// Proc is the per-core execution context a kernel phase runs on. All
// methods advance the core's cycle counter and update its Stats, except
// during an untimed replay, when they do only their data work.
type Proc struct {
	Core  int // global core id
	Lane  int // index of this core within the job's core list
	Lanes int // number of cores in the job

	m   *Machine
	now int64
	st  *Stats

	// LSU: FIFO ring of outstanding access completion times.
	lsu     []int64
	lsuHead int
	lsuLen  int

	// divFree is the next cycle the iterative div/sqrt unit accepts a
	// new operation.
	divFree int64

	// L0 fetch-miss tax: every taxDen eighths of accumulated miss cost
	// turn into one instruction-stall cycle. taxNum is the per-
	// instruction accrual (missCost8), taxDen = 8 * Phase.FetchEvery.
	taxNum, taxDen, taxAcc int64

	// Flattened memory-map constants, hoisted from the Config when the
	// phase starts so the access fast path needs no Decompose divisions:
	// the global bank of a word address is addr % nb (bank-in-tile varies
	// fastest, then tile, then group — see arch/addrmap.go), and the
	// access level falls out of comparing that bank against the core's
	// own tile [tLo, tHi) and group [gLo, gHi) bank ranges.
	nb              int
	nbMask          int // nb-1 when nb is a power of two, else 0
	tLo, tHi        int
	gLo, gHi        int
	latReq, latResp [3]int64

	// untimed marks a memoized Run's replay (Machine.runUntimed), which
	// adds the recorded deltas to its cores' clocks and Stats afterwards:
	// each op only computes its value or reads and writes its memory
	// words, and returns before any operand wait, issue slot, Stats
	// count, divider booking, fetch tax, bank booking or LSU slot. The
	// per-core timing fields (now, st, the LSU ring position, divFree,
	// the fetch tax and the bank ranges) are stale then, and no untimed
	// path reads them.
	untimed bool
}

// bankOf returns the global bank of a word address: addr % nb, as a
// mask when the bank count is a power of two (both reference clusters).
func (p *Proc) bankOf(addr arch.Addr) int {
	if p.nbMask != 0 {
		return int(addr) & p.nbMask
	}
	return int(addr) % p.nb
}

// tax accrues the L0 fetch-miss cost of n issued instructions.
func (p *Proc) tax(n int64) {
	if p.taxNum == 0 {
		return
	}
	p.taxAcc += n * p.taxNum
	if p.taxAcc >= p.taxDen {
		stall := p.taxAcc / p.taxDen
		p.taxAcc -= stall * p.taxDen
		p.now += stall
		p.st.ICacheStalls += stall
	}
}

// Now returns the core's current cycle (useful in tests).
func (p *Proc) Now() int64 { return p.now }

// Config returns the cluster configuration (for layout computations).
func (p *Proc) Config() *arch.Config { return p.m.Cfg }

// wait blocks until operand time t, attributing the gap as a RAW stall
// (arithmetic producer) or an LSU stall (load producer).
func (p *Proc) wait(t int64, fromMem bool) {
	if t > p.now {
		if fromMem {
			p.st.LsuStalls += t - p.now
		} else {
			p.st.RawStalls += t - p.now
		}
		p.now = t
	}
}

// waitW waits for a register operand.
func (p *Proc) waitW(w W) { p.wait(w.At, w.Mem) }

// waitBarrier waits for the barrier counter's response, attributing the
// queueing delay (increments serialize through the counter's bank) to
// the WFI bucket: the core is parked, not blocked on data.
func (p *Proc) waitBarrier(w W) {
	if w.At > p.now {
		p.st.WfiStalls += w.At - p.now
		p.now = w.At
	}
}

// Tick issues n independent single-cycle integer/address instructions.
func (p *Proc) Tick(n int) {
	if p.untimed {
		return
	}
	p.now += int64(n)
	p.st.Instrs += int64(n)
	p.st.IAlu += int64(n)
	p.tax(int64(n))
}

// Load issues a load from addr, a one-word LoadGather. The returned
// value is usable (without a RAW stall) once its At cycle is reached;
// issue itself costs one cycle. Untimed, it reads the word directly.
func (p *Proc) Load(addr arch.Addr) W {
	if p.untimed {
		return W{B: fixed.C15(p.m.Mem.Read(addr))}
	}
	var dst [1]W
	p.LoadGather([]arch.Addr{addr}, dst[:])
	return dst[0]
}

// Store issues a store of w to addr, a one-word StoreScatter. Stores
// retire asynchronously; the core only stalls if the LSU ring is full.
// Untimed, it writes the word directly.
func (p *Proc) Store(addr arch.Addr, w W) {
	if p.untimed {
		p.m.Mem.Write(addr, uint32(w.B))
		return
	}
	p.StoreScatter([]arch.Addr{addr}, []W{w})
}

// AmoAdd performs an atomic fetch-and-add of one on a memory word,
// returning the previous value. Barriers use it on their counters.
func (p *Proc) AmoAdd(addr arch.Addr) W {
	old := p.m.Mem.Read(addr)
	p.m.Mem.Write(addr, old+1)
	if p.untimed {
		return W{B: fixed.C15(old)}
	}
	s := p.bulkBegin()
	done := p.issueWord(&s, p.bankOf(addr))
	p.bulkEnd(&s, 0, 1)
	return W{B: fixed.C15(old), At: done, Mem: true}
}

// issue takes the issue slot of one register instruction counted in
// class: one cycle, the instruction count and the fetch tax. It returns
// the issue cycle, taken before any fetch-tax stall. Memory words issue
// through issueWord instead.
func (p *Proc) issue(class *int64) int64 {
	at := p.now
	p.now++
	p.st.Instrs++
	*class++
	p.tax(1)
	return at
}

// Register ops compute their value first and, untimed, return it at
// once. Timed, they wait for their operands and issue through one of
// the fixed-arity helpers below, each of which takes two operands; a
// zero W stands for no operand and never stalls, since its At is 0.

// aluAt waits for a and b, issues a 1-cycle ALU instruction (packed
// SIMD or widened accumulator) and returns the cycle its result is
// ready.
func (p *Proc) aluAt(a, b W) int64 {
	p.waitW(a)
	p.waitW(b)
	return p.issue(&p.st.IAlu) + 1
}

// mulAt waits for a and b, issues one multiply-class instruction, each
// of which performs one complex MAC, and returns the cycle its result
// is ready.
func (p *Proc) mulAt(a, b W) int64 {
	p.waitW(a)
	p.waitW(b)
	p.st.MACs++
	return p.issue(&p.st.Mults) + p.m.Cfg.MulLatency
}

// divAt waits for a and b, runs n back-to-back operations on the
// non-pipelined divide/sqrt unit, and returns the cycle the last one
// completes.
func (p *Proc) divAt(n int, a, b W) int64 {
	p.waitW(a)
	p.waitW(b)
	var issueAt int64
	for range n {
		if p.divFree > p.now {
			p.st.ExtStalls += p.divFree - p.now
			p.now = p.divFree
		}
		issueAt = p.issue(&p.st.Divs)
		p.divFree = issueAt + p.m.Cfg.DivSqrt.Init
	}
	return issueAt + p.m.Cfg.DivSqrt.Latency
}

// CAdd returns a+b (one packed-SIMD add).
func (p *Proc) CAdd(a, b W) W {
	v := fixed.Add(a.B, b.B)
	if p.untimed {
		return W{B: v}
	}
	return W{B: v, At: p.aluAt(a, b)}
}

// CSub returns a-b.
func (p *Proc) CSub(a, b W) W {
	v := fixed.Sub(a.B, b.B)
	if p.untimed {
		return W{B: v}
	}
	return W{B: v, At: p.aluAt(a, b)}
}

// CHalf returns a/2 (per-component arithmetic shift with rounding).
func (p *Proc) CHalf(a W) W {
	v := fixed.Half(a.B)
	if p.untimed {
		return W{B: v}
	}
	return W{B: v, At: p.aluAt(a, W{})}
}

// CMul returns the rounded complex product a*b.
func (p *Proc) CMul(a, b W) W {
	v := fixed.Mul(a.B, b.B)
	if p.untimed {
		return W{B: v}
	}
	return W{B: v, At: p.mulAt(a, b)}
}

// op returns the register operand an instruction reading a waits on:
// its ready cycle, attributed as a RAW stall.
func (a A) op() W { return W{At: a.At} }

// Mac returns acc + a*b. The accumulator chains through the MAC unit, so
// only a and b can cause RAW stalls.
func (p *Proc) Mac(acc A, a, b W) A {
	v := fixed.MacInto(acc.Acc, a.B, b.B)
	if p.untimed {
		return A{Acc: v}
	}
	return A{Acc: v, At: p.mulAt(a, b)}
}

// MacConj returns acc + a*conj(b).
func (p *Proc) MacConj(acc A, a, b W) A {
	v := fixed.MacConjInto(acc.Acc, a.B, b.B)
	if p.untimed {
		return A{Acc: v}
	}
	return A{Acc: v, At: p.mulAt(a, b)}
}

// MacAbs2 returns acc + |a|^2 (accumulated into the real component).
func (p *Proc) MacAbs2(acc A, a W) A {
	v := fixed.MacAbs2Into(acc.Acc, a.B)
	if p.untimed {
		return A{Acc: v}
	}
	return A{Acc: v, At: p.mulAt(a, W{})}
}

// CAddW returns a+b exactly, widened into an accumulator (one ALU op on
// the widened datapath).
func (p *Proc) CAddW(a, b W) A {
	v := fixed.AddAcc(fixed.AccFromC15(a.B), fixed.AccFromC15(b.B))
	if p.untimed {
		return A{Acc: v}
	}
	return A{Acc: v, At: p.aluAt(a, b)}
}

// CSubW returns a-b exactly, widened into an accumulator.
func (p *Proc) CSubW(a, b W) A {
	v := fixed.SubAcc(fixed.AccFromC15(a.B), fixed.AccFromC15(b.B))
	if p.untimed {
		return A{Acc: v}
	}
	return A{Acc: v, At: p.aluAt(a, b)}
}

// AccAdd returns a+b on accumulators (one ALU op).
func (p *Proc) AccAdd(a, b A) A {
	v := fixed.AddAcc(a.Acc, b.Acc)
	if p.untimed {
		return A{Acc: v}
	}
	return A{Acc: v, At: p.aluAt(a.op(), b.op())}
}

// AccMulNegJ returns a*(-j) exactly (a swap-negate on the accumulator).
func (p *Proc) AccMulNegJ(a A) A {
	v := fixed.MulNegJAcc(a.Acc)
	if p.untimed {
		return A{Acc: v}
	}
	return A{Acc: v, At: p.aluAt(a.op(), W{})}
}

// MulTw multiplies a widened accumulator by a packed twiddle, scaling by
// 2^-shift with a single rounding: the fused twiddle multiply of the FFT
// butterfly (one multiply-class instruction).
func (p *Proc) MulTw(a A, w W, shift uint) W {
	v := fixed.MulAccTw(a.Acc, w.B, shift)
	if p.untimed {
		return W{B: v}
	}
	return W{B: v, At: p.mulAt(a.op(), w)}
}

// Widen converts a register sample to an accumulator (one ALU op).
func (p *Proc) Widen(a W) A {
	v := fixed.AccFromC15(a.B)
	if p.untimed {
		return A{Acc: v}
	}
	return A{Acc: v, At: p.aluAt(a, W{})}
}

// AccSub returns a-b on accumulators (one ALU op per component pair).
func (p *Proc) AccSub(a, b A) A {
	v := fixed.SubAcc(a.Acc, b.Acc)
	if p.untimed {
		return A{Acc: v}
	}
	return A{Acc: v, At: p.aluAt(a.op(), b.op())}
}

// Narrow rounds the accumulator back to a packed Q1.15 register value,
// scaling down by 2^shift.
func (p *Proc) Narrow(acc A, shift uint) W {
	v := acc.Acc.Narrow(shift)
	if p.untimed {
		return W{B: v}
	}
	return W{B: v, At: p.aluAt(acc.op(), W{})}
}

// SqrtRe computes sqrt of the accumulator's real component (Q2.30) as a
// real Q1.15 value, through the iterative unit.
func (p *Proc) SqrtRe(acc A) W {
	v := fixed.Pack(fixed.SqrtQ30toQ15(acc.Acc.Re), 0)
	if p.untimed {
		return W{B: v}
	}
	return W{B: v, At: p.divAt(1, acc.op(), W{})}
}

// DivByRe divides the accumulator (Q2.30 complex) by the real component
// of den (Q1.15), producing a packed Q1.15 complex value. The hardware
// runs the two component divisions back to back on the iterative unit.
func (p *Proc) DivByRe(num A, den W) W {
	d := den.B.Re()
	v := fixed.Pack(fixed.DivQ30byQ15(num.Acc.Re, d), fixed.DivQ30byQ15(num.Acc.Im, d))
	if p.untimed {
		return W{B: v}
	}
	return W{B: v, At: p.divAt(2, num.op(), den)}
}

// CDiv computes the full complex division a/b through the iterative unit
// (used by the channel-estimation kernel): |b|^2 via one MAC, then two
// divisions.
func (p *Proc) CDiv(a, b W) W {
	v := fixed.CDiv(a.B, b.B)
	if p.untimed {
		return W{B: v}
	}
	den := p.MacAbs2(A{}, b)
	num := p.MacConj(A{}, a, b)
	return W{B: v, At: p.divAt(2, num.op(), den.op())}
}

// Imm materializes a constant into a register (one ALU instruction).
func (p *Proc) Imm(v fixed.C15) W {
	if p.untimed {
		return W{B: v}
	}
	return W{B: v, At: p.aluAt(W{}, W{})}
}

// Drain waits for every outstanding LSU transaction to retire,
// attributing the wait as LSU stall. Phases end with an implicit Drain.
// Untimed, it does nothing.
func (p *Proc) Drain() {
	if p.untimed {
		return
	}
	s := p.bulkBegin()
	for s.llen > 0 {
		s.retire(p.lsu)
	}
	p.bulkEnd(&s, 0, 0)
}

// String identifies the proc in panics and traces.
func (p *Proc) String() string {
	return fmt.Sprintf("core %d (lane %d/%d) @%d", p.Core, p.Lane, p.Lanes, p.now)
}
