// Package waveform re-exports the transmit-side pieces the public
// surface names: the QAM constellations a chain is configured with and
// the DFT beamforming matrix.
package waveform

import (
	"repro/internal/ref"
	"repro/internal/waveform"
)

// Scheme is a QAM constellation (QPSK, QAM16, QAM64).
type Scheme = waveform.Scheme

// Constellations.
const (
	QPSK  = waveform.QPSK
	QAM16 = waveform.QAM16
	QAM64 = waveform.QAM64
)

// DFTBeams returns the unitary-row DFT beamforming matrix.
func DFTBeams(nBeams, nAnt int) *ref.Mat { return waveform.DFTBeams(nBeams, nAnt) }
