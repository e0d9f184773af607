package chest

import (
	"math/rand/v2"
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
)

// TestPlanOnOffsetPartition runs the estimation pass on a partition far
// from core 0 and checks bit-identical estimates and noise variance
// against the zero-based plan of the same width: the kernel's values
// must depend on the lane decomposition only, never on which physical
// cores host the lanes.
func TestPlanOnOffsetPartition(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	y := make([]fixed.C15, 64*4)
	for i := range y {
		y[i] = fixed.Pack(int16(rng.IntN(1<<14)), int16(rng.IntN(1<<14)))
	}
	pilots := make([]fixed.C15, 64)
	for i := range pilots {
		pilots[i] = fixed.Pack(int16(8192), int16(-8192))
	}

	run := func(cores []int) ([]fixed.C15, float64) {
		m := engine.NewMachine(arch.MemPool())
		m.DebugRaces = true
		pl, err := NewPlanOn(m, cores, 64, 4, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.WriteY(y); err != nil {
			t.Fatal(err)
		}
		if err := pl.WritePilots(pilots); err != nil {
			t.Fatal(err)
		}
		if err := pl.Run(); err != nil {
			t.Fatal(err)
		}
		return pl.ReadH(), pl.Sigma()
	}

	hBase, sigmaBase := run(firstCores(8))
	offset := make([]int, 8)
	for i := range offset {
		offset[i] = 100 + i // tiles 25/26, nowhere near core 0
	}
	hOff, sigmaOff := run(offset)
	for i := range hBase {
		if hBase[i] != hOff[i] {
			t.Fatalf("h[%d] = %08x on offset partition, want %08x", i, uint32(hOff[i]), uint32(hBase[i]))
		}
	}
	if sigmaBase != sigmaOff {
		t.Fatalf("sigma %v on offset partition, want %v", sigmaOff, sigmaBase)
	}
}
