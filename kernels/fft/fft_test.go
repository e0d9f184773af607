package fft_test

import (
	"testing"

	"repro/kernels/fft"
	"repro/sim"
)

func TestPublicFFT(t *testing.T) {
	m := sim.NewMachine(sim.MemPool())
	pl, err := fft.NewPlan(m, 64, 1, 1, fft.Folded)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Lanes != 4 {
		t.Errorf("lanes = %d", pl.Lanes)
	}
	if _, err := fft.NewPlan(m, 100, 1, 1, fft.Interleaved); err == nil {
		t.Error("bad size accepted")
	}
}
