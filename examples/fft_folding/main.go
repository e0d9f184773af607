// fft_folding shows why the paper folds the FFT working set into
// tile-local banks: the same 1024-point transforms run with the folded
// layout (every element and twiddle load is a 1-cycle local access) and
// with a naive interleaved layout (loads scatter across the cluster),
// and the cycle counts, memory-stall fractions and bank-conflict totals
// are compared.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/kernels/fft"
)

func run(lay fft.Layout) (engine.Report, int64) {
	m := engine.NewMachine(arch.MemPool())
	plan, err := fft.NewPlan(m, 1024, 4, 1, lay)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 13))
	for j := 0; j < plan.Jobs; j++ {
		x := make([]fixed.C15, 1024)
		for i := range x {
			x[i] = fixed.FromComplex(complex(rng.Float64()-0.5, rng.Float64()-0.5))
		}
		if err := plan.WriteInput(j, 0, x); err != nil {
			log.Fatal(err)
		}
	}
	mark := m.Mark()
	if err := plan.Run(); err != nil {
		log.Fatal(err)
	}
	return m.ReportSince(mark, "fft", nil), m.Mem.Res.ConflictCycles()
}

func main() {
	log.SetFlags(0)
	folded, fc := run(fft.Folded)
	inter, ic := run(fft.Interleaved)

	fmt.Println("4 x 1024-point FFTs on MemPool (64 lanes each):")
	fmt.Printf("  %-12s %8s %6s %10s %10s\n", "layout", "cycles", "IPC", "mem-stall", "arb.delays")
	fmt.Printf("  %-12s %8d %6.2f %9.1f%% %10d\n", "folded", folded.Wall, folded.IPC(), folded.MemStallFraction()*100, fc)
	fmt.Printf("  %-12s %8d %6.2f %9.1f%% %10d\n", "interleaved", inter.Wall, inter.IPC(), inter.MemStallFraction()*100, ic)
	fmt.Printf("folding saves %.1f%% of the cycles\n",
		100*(1-float64(folded.Wall)/float64(inter.Wall)))
}
