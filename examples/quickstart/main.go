// Quickstart: simulate a 256-point FFT on 16 cores of MemPool, feed it a
// pure tone, and verify the spectrum peaks in the right bin while the
// engine reports cycles, IPC and the stall breakdown.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/kernels/fft"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	const n = 256
	const toneBin = 42

	// A machine is one simulated cluster. MemPool has 256 cores; a
	// 256-point FFT occupies n/16 = 16 of them.
	m := engine.NewMachine(arch.MemPool())
	plan, err := fft.NewPlan(m, n, 1, 1, fft.Folded)
	if err != nil {
		log.Fatal(err)
	}

	// Input: a complex exponential at bin 42, amplitude 0.5.
	x := make([]fixed.C15, n)
	for i := range x {
		angle := 2 * math.Pi * toneBin * float64(i) / n
		x[i] = fixed.FromComplex(complex(0.5*math.Cos(angle), 0.5*math.Sin(angle)))
	}
	if err := plan.WriteInput(0, 0, x); err != nil {
		log.Fatal(err)
	}

	mark := m.Mark()
	if err := plan.Run(); err != nil {
		log.Fatal(err)
	}
	// Scope the report to the 16 lanes actually running the transform.
	rep := m.ReportSince(mark, "fft-256", plan.JobCores(0))

	// The kernel computes DFT/N, so the tone of amplitude 0.5 lands in
	// bin 42 with magnitude ~0.5.
	out := plan.ReadOutput(0, 0)
	best, bestMag := 0, 0.0
	for k, v := range out {
		z := v.Complex()
		mag := math.Hypot(real(z), imag(z))
		if mag > bestMag {
			best, bestMag = k, mag
		}
	}
	fmt.Printf("input tone at bin %d -> spectral peak at bin %d (|X| = %.3f)\n", toneBin, best, bestMag)
	if best != toneBin {
		log.Fatalf("unexpected peak bin %d", best)
	}

	fmt.Printf("simulated %d cycles on %d lanes\n", rep.Wall, plan.Lanes)
	fmt.Printf("IPC %.2f, breakdown: %s\n", rep.IPC(), report.NewBreakdown(rep))

	// Each lane's counters split its cycles into work (issue slots and
	// stalls on data, units or refills) and WFI, the sleep at the
	// inter-stage barriers. The machine is fresh, so they cover this run.
	fmt.Println("\nper-lane cycles (4 of 16 lanes):")
	for _, c := range plan.JobCores(0)[:4] {
		st := m.CoreStats(c)
		fmt.Printf("core %d: work %d, wfi %d\n", c, st.Busy()-st.WfiStalls, st.WfiStalls)
	}
}
