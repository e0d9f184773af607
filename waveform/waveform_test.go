package waveform_test

import (
	"math/cmplx"
	"testing"

	"repro/waveform"
)

func TestPublicWaveform(t *testing.T) {
	for s, want := range map[waveform.Scheme]int{waveform.QPSK: 2, waveform.QAM16: 4, waveform.QAM64: 6} {
		if got := s.BitsPerSymbol(); got != want {
			t.Errorf("%s: %d bits per symbol, want %d", s, got, want)
		}
	}
	w := waveform.DFTBeams(8, 16)
	for beam := 0; beam < 8; beam++ {
		var norm float64
		for ant := 0; ant < 16; ant++ {
			norm += cmplx.Abs(w.At(beam, ant)) * cmplx.Abs(w.At(beam, ant))
		}
		if norm < 0.999 || norm > 1.001 {
			t.Errorf("beam %d has squared norm %g, want 1", beam, norm)
		}
	}
}
