package engine

import (
	"repro/internal/arch"
	"repro/internal/fixed"
)

// Memory access path.
//
// issueWord owns the per-word timing of every load, store and atomic:
// the issue cycle, the fetch-tax accrual, the bank booking at the word's
// interconnect level, and the LSU-ring push with its stall when the ring
// is full. Scalar Load, Store and AmoAdd are one-word calls of it; the
// span ops below issue a whole run of regularly-strided or gathered
// words per call. Either way, bulkBegin copies the core's clock, tax
// accumulator and LSU ring position into a bulkState, the words run out
// of registers, and bulkEnd flushes them and the counters once. A span
// op also tracks each word's bank incrementally (bank' = bank + stride
// mod NumBanks) instead of re-deriving it from the address map.
//
// The contract for kernels: a span op may replace a run of consecutive
// scalar Loads (or Stores) only when no other Proc instruction would
// have been interleaved between them — the words of a span issue
// back-to-back, exactly like the unrolled scalar sequence. See
// docs/ARCHITECTURE.md, "Engine performance model".

// bulkState caches the per-core interpreter state that every word of a
// span touches, so the loop runs out of registers and flushes once.
type bulkState struct {
	now      int64
	taxAcc   int64
	icStall  int64
	lsuStall int64
	rawStall int64
	head     int
	llen     int
}

func (p *Proc) bulkBegin() bulkState {
	return bulkState{now: p.now, taxAcc: p.taxAcc, head: p.lsuHead, llen: p.lsuLen}
}

func (p *Proc) bulkEnd(s *bulkState, loads, stores int64) {
	p.now = s.now
	p.taxAcc = s.taxAcc
	p.lsuHead = s.head
	p.lsuLen = s.llen
	p.st.Instrs += loads + stores
	p.st.Loads += loads
	p.st.Stores += stores
	p.st.ICacheStalls += s.icStall
	p.st.LsuStalls += s.lsuStall
	p.st.RawStalls += s.rawStall
}

// retire pops the oldest outstanding access off the LSU ring lsu,
// stalling until it completes.
func (s *bulkState) retire(lsu []int64) {
	if oldest := lsu[s.head]; oldest > s.now {
		s.lsuStall += oldest - s.now
		s.now = oldest
	}
	s.head++
	if s.head == len(lsu) {
		s.head = 0
	}
	s.llen--
}

// issueWord advances one load/store issue: one cycle, the fetch tax,
// the bank booking, and the LSU-ring push — the per-word timing of every
// memory op. It returns the access completion cycle.
func (p *Proc) issueWord(s *bulkState, bank int) int64 {
	issueAt := s.now
	s.now++
	if p.taxNum != 0 {
		s.taxAcc += p.taxNum
		if s.taxAcc >= p.taxDen {
			stall := s.taxAcc / p.taxDen
			s.taxAcc -= stall * p.taxDen
			s.now += stall
			s.icStall += stall
		}
	}
	lvl := arch.LevelRemote
	if bank >= p.tLo && bank < p.tHi {
		lvl = arch.LevelLocal
	} else if bank >= p.gLo && bank < p.gHi {
		lvl = arch.LevelGroup
	}
	slot := p.m.Mem.Res.Acquire(bank, issueAt+p.latReq[lvl])
	done := slot + 1 + p.latResp[lvl]
	depth := len(p.lsu)
	if s.llen == depth {
		s.retire(p.lsu)
	}
	i := s.head + s.llen
	if i >= depth {
		i -= depth
	}
	p.lsu[i] = done
	s.llen++
	return done
}

// bankStep normalizes an element stride to a non-negative per-word bank
// increment modulo the bank count.
func (p *Proc) bankStep(stride int) int {
	step := stride % p.nb
	if step < 0 {
		step += p.nb
	}
	return step
}

// LoadVec issues len(dst) loads from base, base+stride, base+2*stride,
// ... back to back, filling dst. Cycle-identical to the scalar loop
//
//	for i := range dst { dst[i] = p.Load(base + Addr(i*stride)) }
func (p *Proc) LoadVec(base arch.Addr, stride int, dst []W) {
	if len(dst) == 0 {
		return
	}
	s := p.bulkBegin()
	bank := p.bankOf(base)
	step := p.bankStep(stride)
	addr := base
	for i := range dst {
		done := p.issueWord(&s, bank)
		if p.m.DebugRaces {
			p.m.raceCheckRead(p.Core, addr)
		}
		dst[i] = W{B: fixed.C15(p.m.Mem.Read(addr)), At: done, Mem: true}
		addr += arch.Addr(stride)
		bank += step
		if bank >= p.nb {
			bank -= p.nb
		}
	}
	p.bulkEnd(&s, int64(len(dst)), 0)
}

// LoadSpan issues len(dst) loads from consecutive addresses starting at
// base (a unit-stride LoadVec).
func (p *Proc) LoadSpan(base arch.Addr, dst []W) { p.LoadVec(base, 1, dst) }

// LoadGather issues one load per address in addrs, back to back,
// filling dst (which must be at least as long). Cycle-identical to the
// scalar loop over p.Load(addrs[i]).
func (p *Proc) LoadGather(addrs []arch.Addr, dst []W) {
	if len(addrs) == 0 {
		return
	}
	s := p.bulkBegin()
	for i, addr := range addrs {
		done := p.issueWord(&s, p.bankOf(addr))
		if p.m.DebugRaces {
			p.m.raceCheckRead(p.Core, addr)
		}
		dst[i] = W{B: fixed.C15(p.m.Mem.Read(addr)), At: done, Mem: true}
	}
	p.bulkEnd(&s, int64(len(addrs)), 0)
}

// Load2 issues two back-to-back loads (the common paired-operand case:
// both factors of a MAC fetched in consecutive cycles).
func (p *Proc) Load2(a0, a1 arch.Addr) (W, W) {
	var addrs [2]arch.Addr
	var dst [2]W
	addrs[0], addrs[1] = a0, a1
	p.LoadGather(addrs[:], dst[:])
	return dst[0], dst[1]
}

// storeWord performs the operand wait + issue of one bulk store.
func (p *Proc) storeWord(s *bulkState, addr arch.Addr, bank int, w W) {
	if w.At > s.now {
		if w.Mem {
			s.lsuStall += w.At - s.now
		} else {
			s.rawStall += w.At - s.now
		}
		s.now = w.At
	}
	p.issueWord(s, bank)
	if p.m.DebugRaces {
		p.m.raceCheckWrite(p.Core, addr)
	}
	p.m.Mem.Write(addr, uint32(w.B))
}

// StoreVec issues len(src) stores to base, base+stride, ... back to
// back. Cycle-identical to the scalar loop over p.Store: each word
// first waits for its operand, then issues.
func (p *Proc) StoreVec(base arch.Addr, stride int, src []W) {
	if len(src) == 0 {
		return
	}
	s := p.bulkBegin()
	bank := p.bankOf(base)
	step := p.bankStep(stride)
	addr := base
	for i := range src {
		p.storeWord(&s, addr, bank, src[i])
		addr += arch.Addr(stride)
		bank += step
		if bank >= p.nb {
			bank -= p.nb
		}
	}
	p.bulkEnd(&s, 0, int64(len(src)))
}

// StoreSpan issues len(src) stores to consecutive addresses starting at
// base (a unit-stride StoreVec).
func (p *Proc) StoreSpan(base arch.Addr, src []W) { p.StoreVec(base, 1, src) }

// StoreScatter issues one store per address in addrs, back to back,
// draining src. Cycle-identical to the scalar loop over p.Store.
func (p *Proc) StoreScatter(addrs []arch.Addr, src []W) {
	if len(addrs) == 0 {
		return
	}
	s := p.bulkBegin()
	for i, addr := range addrs {
		p.storeWord(&s, addr, p.bankOf(addr), src[i])
	}
	p.bulkEnd(&s, 0, int64(len(addrs)))
}
