// Command complexity regenerates the paper's Section II analysis:
// Table I (the per-stage complex-MAC formulas of the PUSCH chain) and
// Fig. 3 (each stage's share of the slot's total MACs as the number of
// UEs sharing the resources grows).
//
// Usage:
//
//	complexity [-fig3] [-nl N]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/pusch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("complexity: ")
	fig3 := flag.Bool("fig3", false, "print only the Fig. 3 share table")
	nl := flag.Int("nl", 4, "number of UEs for the Table I rendering")
	flag.Parse()

	nls := []int{1, 2, 4, 8, 16, 32}
	if *fig3 {
		fmt.Println("Fig. 3 — share of total complex MACs per PUSCH stage vs number of UEs")
		fmt.Println("(3276 subcarriers, 14 symbols, 2 pilots, 64 antennas, 32 beams)")
		fmt.Println()
		fmt.Print(pusch.Fig3Table(nls))
		return
	}

	d := pusch.UseCaseDims(*nl)
	if err := d.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table I — PUSCH kernels and computational complexity (NL = %d)\n\n", *nl)
	fmt.Print(d.TableI())
	fmt.Println()
	fmt.Println("Fig. 3 — per-stage share of total MACs vs number of UEs")
	fmt.Println()
	fmt.Print(pusch.Fig3Table(nls))
	fmt.Println()
	fmt.Println("Amdahl reading: the dominant kernels worth parallelizing are the FFT,")
	fmt.Println("the beamforming MMM and, as UE count grows, the MIMO Cholesky stage.")
}
