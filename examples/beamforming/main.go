// beamforming demonstrates the BF stage in isolation: a plane wave
// arriving at a 16-antenna array is beamformed into 8 DFT beams with the
// 4x4-window MMM kernel on the simulated cluster, and the beam powers
// show the wave concentrating in the expected beam.
package main

import (
	"fmt"
	"log"
	"math"
	"math/cmplx"
	"strings"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/fixed"
	"repro/internal/kernels/mmm"
	"repro/internal/waveform"
)

func main() {
	log.SetFlags(0)
	const (
		nsc   = 64 // subcarriers (rows of the product)
		nAnt  = 16
		nBeam = 8
		// The arriving wave's spatial frequency matches DFT beam 3.
		arrival = 3
	)

	m := engine.NewMachine(arch.MemPool())
	plan, err := mmm.NewPlan(m, nsc, nAnt, nBeam, 64, mmm.Options{ZeroShift: true})
	if err != nil {
		log.Fatal(err)
	}

	// A[sc][ant]: a plane wave hitting the array at the angle of beam 3,
	// with a per-subcarrier symbol riding on it.
	a := make([]fixed.C15, nsc*nAnt)
	for sc := 0; sc < nsc; sc++ {
		symbol := cmplx.Rect(0.4, 2*math.Pi*float64(sc)/nsc)
		for ant := 0; ant < nAnt; ant++ {
			steer := cmplx.Rect(1, 2*math.Pi*float64(arrival)*float64(ant)/nAnt)
			a[sc*nAnt+ant] = fixed.FromComplex(symbol * steer / complex(float64(nAnt), 0) * 4)
		}
	}
	if err := plan.WriteA(a); err != nil {
		log.Fatal(err)
	}

	// B[ant][beam]: the transposed DFT steering matrix. Beam b sums
	// antenna a with weight exp(-2pi*i*a*b/nAnt)/sqrt(nAnt), so a wave
	// with spatial frequency +b/nAnt adds coherently into beam b.
	w := waveform.DFTBeams(nBeam, nAnt)
	b := make([]fixed.C15, nAnt*nBeam)
	for ant := 0; ant < nAnt; ant++ {
		for beam := 0; beam < nBeam; beam++ {
			b[ant*nBeam+beam] = fixed.FromComplex(w.At(beam, ant))
		}
	}
	if err := plan.WriteB(b); err != nil {
		log.Fatal(err)
	}

	mark := m.Mark()
	if err := plan.Run(); err != nil {
		log.Fatal(err)
	}
	rep := m.ReportSince(mark, "beamforming", nil)

	c := plan.ReadC()
	power := make([]float64, nBeam)
	for sc := 0; sc < nsc; sc++ {
		for beam := 0; beam < nBeam; beam++ {
			z := c[sc*nBeam+beam].Complex()
			power[beam] += real(z)*real(z) + imag(z)*imag(z)
		}
	}
	peak := 0
	for beam, p := range power {
		if p > power[peak] {
			peak = beam
		}
	}
	fmt.Printf("beamforming %dx%dx%d on 64 cores: %d cycles, %.1f MACs/cycle\n",
		nsc, nAnt, nBeam, rep.Wall, rep.MACsPerCycle())
	fmt.Println("beam powers:")
	for beam, p := range power {
		bar := strings.Repeat("#", int(60*p/power[peak]))
		fmt.Printf("  beam %d %10.4f %s\n", beam, p, bar)
	}
	fmt.Printf("wave arrived from the direction of beam %d; power peaks in beam %d\n", arrival, peak)
	if peak != arrival {
		log.Fatal("beam peak does not match the arrival direction")
	}
}
