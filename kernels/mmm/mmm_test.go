package mmm_test

import (
	"testing"

	"repro/kernels/mmm"
	"repro/sim"
)

func TestPublicMMM(t *testing.T) {
	m := sim.NewMachine(sim.MemPool())
	pl, err := mmm.NewPlan(m, 8, 8, 8, 4, mmm.Options{ZeroShift: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Opt.ZeroShift {
		t.Error("scaling option lost")
	}
}
