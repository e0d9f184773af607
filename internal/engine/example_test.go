package engine_test

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
)

// ExampleNewMachine runs a tiny parallel job and prints the instruction
// count, demonstrating the simulator API.
func ExampleNewMachine() {
	m := engine.NewMachine(arch.MemPool())
	base, err := m.Mem.AllocSeq(16)
	if err != nil {
		panic(err)
	}
	err = m.Run(engine.Job{
		Name:  "example",
		Cores: []int{0, 1, 2, 3},
		Phases: []engine.Phase{{Name: "store", Work: func(p *engine.Proc) {
			v := p.Imm(fixed.Pack(int16(p.Lane), 0))
			p.Store(base+arch.Addr(p.Lane), v)
		}}},
	})
	if err != nil {
		panic(err)
	}
	total := m.TotalStats()
	fmt.Println("stores executed:", total.Stores > 0)
	// Output: stores executed: true
}
