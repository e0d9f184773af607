package engine

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/fixed"
)

// resetWorkload is a small multi-phase, multi-core job exercising loads,
// stores, MACs, barriers and the shared instruction cache, so every piece
// of machine state Reset must clear contributes to the observed timing.
func resetWorkload(t *testing.T, m *Machine) (cycles int64, stats Stats, word uint32) {
	t.Helper()
	base, err := m.Mem.AllocSeq(64)
	if err != nil {
		t.Fatal(err)
	}
	cores := []int{0, 1, 2, 3, 4, 5, 6, 7}
	job := Job{
		Name:  "reset-probe",
		Cores: cores,
		Phases: []Phase{
			{Name: "fill", Kernel: "probe/fill", Lines: 12, Work: func(p *Proc) {
				for i := p.Lane; i < 64; i += p.Lanes {
					p.Store(base+arch.Addr(i), p.Imm(fixed.Pack(int16(i), int16(-i))))
				}
			}},
			{Name: "mac", Kernel: "probe/mac", Lines: 6, Work: func(p *Proc) {
				var acc A
				for i := p.Lane; i < 64; i += p.Lanes {
					w := p.Load(base + arch.Addr(i))
					acc = p.MacAbs2(acc, w)
				}
				p.Store(base+arch.Addr(p.Lane), p.Narrow(acc, 6))
			}},
		},
	}
	if err := m.Run(job); err != nil {
		t.Fatal(err)
	}
	m.ClusterBarrier()
	return m.Cycles(), m.TotalStats(), m.Mem.Read(base)
}

func TestMachineResetReproducesFreshRun(t *testing.T) {
	cfg := arch.MemPool()
	fresh := NewMachine(cfg)
	c1, s1, w1 := resetWorkload(t, fresh)

	fresh.Reset()
	c2, s2, w2 := resetWorkload(t, fresh)
	if c1 != c2 || s1 != s2 || w1 != w2 {
		t.Errorf("reused machine diverges: cycles %d vs %d, word %#x vs %#x\nfresh %+v\nreused %+v",
			c1, c2, w1, w2, s1, s2)
	}

	// And a second fresh machine agrees too, so Reset really is
	// equivalent to construction.
	other := NewMachine(cfg)
	c3, s3, w3 := resetWorkload(t, other)
	if c1 != c3 || s1 != s3 || w1 != w3 {
		t.Errorf("second fresh machine diverges: cycles %d vs %d", c1, c3)
	}
}

func TestMachineResetClearsState(t *testing.T) {
	m := NewMachine(arch.MemPool())
	m.Tracer = &Tracer{}
	_, _, _ = resetWorkload(t, m)
	if m.Cycles() == 0 {
		t.Fatal("workload did not advance the clock")
	}
	if len(m.Tracer.Events) == 0 {
		t.Fatal("workload did not record trace events")
	}
	free := tcdmFree(m)
	m.Reset()
	if m.Cycles() != 0 {
		t.Errorf("Cycles after Reset = %d, want 0", m.Cycles())
	}
	if s := m.TotalStats(); s != (Stats{}) {
		t.Errorf("TotalStats after Reset = %+v, want zero", s)
	}
	if len(m.Tracer.Events) != 0 {
		t.Errorf("Tracer kept %d events across Reset", len(m.Tracer.Events))
	}
	if got := tcdmFree(m); got <= free {
		t.Errorf("FreeWords after Reset = %d, want > %d (allocations released)", got, free)
	}
}

func tcdmFree(m *Machine) int { return m.Mem.FreeWords() }

func TestMachinesPoolReuses(t *testing.T) {
	pool := NewMachines()
	cfgA := arch.MemPool()
	mA := pool.Get(cfgA)
	c1, s1, _ := resetWorkload(t, mA)
	pool.Put(mA)
	if pool.Size() != 1 {
		t.Fatalf("pool size = %d, want 1", pool.Size())
	}

	// A value-equal but distinct config must hit the same pool slot.
	mB := pool.Get(arch.MemPool())
	if mB != mA {
		t.Error("value-equal config did not reuse the pooled machine")
	}
	if pool.Size() != 0 {
		t.Fatalf("pool size after Get = %d, want 0", pool.Size())
	}
	c2, s2, _ := resetWorkload(t, mB)
	if c1 != c2 || s1 != s2 {
		t.Errorf("pooled machine diverges from its own first run: %d vs %d cycles", c1, c2)
	}
	pool.Put(mB)

	// Caller-set knobs must not leak through the pool: a later Get must
	// see a machine indistinguishable from a fresh one.
	mK := pool.Get(cfgA)
	mK.Tracer = &Tracer{}
	mK.DebugRaces = true
	pool.Put(mK)
	if got := pool.Get(cfgA); got.Tracer != nil || got.DebugRaces {
		t.Error("pooled machine leaked Tracer/DebugRaces to the next owner")
	} else {
		pool.Put(got)
	}

	// A different config must not be handed the pooled MemPool machine.
	mT := pool.Get(arch.TeraPool())
	if mT == mB {
		t.Error("TeraPool Get returned the pooled MemPool machine")
	}
	if mT.Cfg.NumCores() != arch.TeraPool().NumCores() {
		t.Errorf("wrong machine: %d cores", mT.Cfg.NumCores())
	}
}
