package sim_test

import (
	"fmt"
	"testing"

	"repro/fixedpoint"
	"repro/sim"
)

func TestPublicSurface(t *testing.T) {
	mp := sim.MemPool()
	if mp.NumCores() != 256 {
		t.Fatalf("MemPool has %d cores", mp.NumCores())
	}
	m := sim.NewMachine(mp)
	mark := m.Mark()
	err := m.Run(sim.Job{
		Name:  "smoke",
		Cores: []int{0, 1},
		Phases: []sim.Phase{{Name: "p", Work: func(p *sim.Proc) {
			p.Tick(10)
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.ReportSince(mark, "smoke", []int{0, 1})
	if rep.Stats.Instrs < 20 {
		t.Errorf("instrs = %d", rep.Stats.Instrs)
	}
}

// ExampleNewMachine runs a tiny parallel job and prints the instruction
// count, demonstrating the public simulator API.
func ExampleNewMachine() {
	m := sim.NewMachine(sim.MemPool())
	base, err := m.Mem.AllocSeq(16)
	if err != nil {
		panic(err)
	}
	err = m.Run(sim.Job{
		Name:  "example",
		Cores: []int{0, 1, 2, 3},
		Phases: []sim.Phase{{Name: "store", Work: func(p *sim.Proc) {
			v := p.Imm(fixedpoint.Pack(int16(p.Lane), 0))
			p.Store(base+sim.Addr(p.Lane), v)
		}}},
	})
	if err != nil {
		panic(err)
	}
	total := m.TotalStats()
	fmt.Println("stores executed:", total.Stores > 0)
	// Output: stores executed: true
}
