// Package waveform provides the transmit-side and channel substrate the
// reproduction needs to exercise the PUSCH receive chain end to end:
// Gold-sequence pilot generation, QAM modulation, OFDM synthesis, a
// frequency-selective MIMO channel, AWGN, and signal-quality metrics.
// Everything is deterministic under a caller-provided seed.
package waveform

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"strings"

	"repro/internal/ref"
)

// GoldSequence generates n pseudo-random bits from the length-31 Gold
// construction used by the 3GPP pilot scramblers: two x^31 LFSRs with a
// configurable initialization for the second register.
func GoldSequence(cInit uint32, n int) []byte {
	const nc = 1600
	total := nc + n
	x1 := make([]byte, total+31)
	x2 := make([]byte, total+31)
	x1[0] = 1
	for i := 0; i < 31; i++ {
		x2[i] = byte(cInit >> i & 1)
	}
	for i := 0; i < total; i++ {
		x1[i+31] = x1[i+3] ^ x1[i]
		x2[i+31] = x2[i+3] ^ x2[i+2] ^ x2[i+1] ^ x2[i]
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = x1[i+nc] ^ x2[i+nc]
	}
	return out
}

// QPSKPilots maps pairs of Gold bits to unit-modulus QPSK pilot symbols,
// scaled by amp.
func QPSKPilots(cInit uint32, n int, amp float64) []complex128 {
	bits := GoldSequence(cInit, 2*n)
	out := make([]complex128, n)
	s := amp / math.Sqrt2
	for i := range out {
		re := s * (1 - 2*float64(bits[2*i]))
		im := s * (1 - 2*float64(bits[2*i+1]))
		out[i] = complex(re, im)
	}
	return out
}

// Scheme is a QAM constellation.
type Scheme int

const (
	// QPSK carries 2 bits per symbol.
	QPSK Scheme = iota
	// QAM16 carries 4 bits per symbol.
	QAM16
	// QAM64 carries 6 bits per symbol.
	QAM64
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16QAM"
	case QAM64:
		return "64QAM"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Name returns the scheme's lower-case wire name, as records and job
// specs carry it: "qpsk", "16qam" or "64qam", without allocating. An
// invalid scheme gets its String lower-cased.
func (s Scheme) Name() string {
	switch s {
	case QPSK:
		return "qpsk"
	case QAM16:
		return "16qam"
	case QAM64:
		return "64qam"
	default:
		return strings.ToLower(s.String())
	}
}

// BitsPerSymbol returns the number of bits one constellation point
// carries.
func (s Scheme) BitsPerSymbol() int {
	switch s {
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	default:
		panic(fmt.Sprintf("waveform: unknown scheme %d", int(s)))
	}
}

// pamLevels returns the Gray-coded PAM amplitudes of one axis,
// normalized so the full constellation has unit average energy.
func (s Scheme) pamLevels() []float64 {
	switch s {
	case QPSK:
		v := 1 / math.Sqrt2
		return []float64{v, -v}
	case QAM16:
		v := 1 / math.Sqrt(10)
		// Gray order for bit pairs 00,01,10,11 on one axis.
		return []float64{v, 3 * v, -v, -3 * v}
	case QAM64:
		v := 1 / math.Sqrt(42)
		return []float64{3 * v, v, 5 * v, 7 * v, -3 * v, -v, -5 * v, -7 * v}
	default:
		panic(fmt.Sprintf("waveform: unknown scheme %d", int(s)))
	}
}

// Modulate maps bits to constellation points scaled by amp. The bit
// count must be a multiple of BitsPerSymbol.
func Modulate(s Scheme, bits []byte, amp float64) ([]complex128, error) {
	bps := s.BitsPerSymbol()
	if len(bits)%bps != 0 {
		return nil, fmt.Errorf("waveform: %d bits not a multiple of %d", len(bits), bps)
	}
	levels := s.pamLevels()
	half := bps / 2
	out := make([]complex128, len(bits)/bps)
	for i := range out {
		var ii, qq int
		for b := 0; b < half; b++ {
			ii = ii<<1 | int(bits[i*bps+b])
			qq = qq<<1 | int(bits[i*bps+half+b])
		}
		out[i] = complex(levels[ii]*amp, levels[qq]*amp)
	}
	return out, nil
}

// Demodulate hard-decides constellation points (scaled by amp) back to
// bits.
func Demodulate(s Scheme, syms []complex128, amp float64) []byte {
	levels := s.pamLevels()
	bps := s.BitsPerSymbol()
	half := bps / 2
	out := make([]byte, len(syms)*bps)
	decide := func(v float64) int {
		best, bestD := 0, math.Inf(1)
		for i, l := range levels {
			if d := math.Abs(v - l*amp); d < bestD {
				best, bestD = i, d
			}
		}
		return best
	}
	for i, sym := range syms {
		ii := decide(real(sym))
		qq := decide(imag(sym))
		for b := 0; b < half; b++ {
			out[i*bps+b] = byte(ii >> (half - 1 - b) & 1)
			out[i*bps+half+b] = byte(qq >> (half - 1 - b) & 1)
		}
	}
	return out
}

// OFDMModulate synthesizes the time-domain OFDM symbol for a frequency
// grid of n subcarriers: an unscaled inverse DFT divided by sqrt(n), so
// the time-domain RMS equals the frequency-domain RMS (unitary).
func OFDMModulate(freq []complex128) []complex128 {
	n := len(freq)
	time := ref.IFFTRadix4(freq) // includes 1/n
	scale := complex(math.Sqrt(float64(n)), 0)
	out := make([]complex128, n)
	for i := range out {
		out[i] = time[i] * scale
	}
	return out
}

// Channel is a frequency-selective MIMO channel: Taps[r][t] holds the
// circular impulse response from transmit antenna t to receive antenna r.
type Channel struct {
	NRx, NTx int
	Taps     [][][]complex128 // [rx][tx][tap]
}

// NewChannel draws an NRx-by-NTx channel with nTaps Rayleigh taps per
// pair, normalized so each pair has unit average energy and the summed
// transmit power is divided by NTx (keeping receive levels bounded).
func NewChannel(rng *rand.Rand, nRx, nTx, nTaps int) *Channel {
	ch := &Channel{NRx: nRx, NTx: nTx}
	ch.Taps = make([][][]complex128, nRx)
	norm := 1 / math.Sqrt(2*float64(nTaps)*float64(nTx))
	for r := 0; r < nRx; r++ {
		ch.Taps[r] = make([][]complex128, nTx)
		for t := 0; t < nTx; t++ {
			taps := make([]complex128, nTaps)
			for k := range taps {
				taps[k] = complex(rng.NormFloat64()*norm, rng.NormFloat64()*norm)
			}
			ch.Taps[r][t] = taps
		}
	}
	return ch
}

// Apply circularly convolves the transmit signals (one per TX antenna)
// with the channel and adds complex AWGN of standard deviation noiseStd
// per component, returning one signal per receive antenna. Circular
// convolution models a cyclic prefix at least as long as the channel.
func (ch *Channel) Apply(rng *rand.Rand, tx [][]complex128, noiseStd float64) ([][]complex128, error) {
	if len(tx) != ch.NTx {
		return nil, fmt.Errorf("waveform: %d tx signals for a %d-antenna channel", len(tx), ch.NTx)
	}
	n := len(tx[0])
	for _, s := range tx {
		if len(s) != n {
			return nil, fmt.Errorf("waveform: tx signals of unequal length")
		}
	}
	out := make([][]complex128, ch.NRx)
	for r := 0; r < ch.NRx; r++ {
		y := make([]complex128, n)
		for t := 0; t < ch.NTx; t++ {
			taps := ch.Taps[r][t]
			for k, g := range taps {
				if g == 0 {
					continue
				}
				for i := 0; i < n; i++ {
					src := i - k
					if src < 0 {
						src += n
					}
					y[i] += g * tx[t][src]
				}
			}
		}
		for i := range y {
			y[i] += complex(rng.NormFloat64()*noiseStd, rng.NormFloat64()*noiseStd)
		}
		out[r] = y
	}
	return out, nil
}

// FrequencyResponse returns the channel matrix H(sc) at one subcarrier
// for an n-point grid: H[r][t] = sum_k taps[r][t][k] exp(-2pi i k sc/n).
func (ch *Channel) FrequencyResponse(sc, n int) *ref.Mat {
	h := ref.NewMat(ch.NRx, ch.NTx)
	for r := 0; r < ch.NRx; r++ {
		for t := 0; t < ch.NTx; t++ {
			var acc complex128
			for k, g := range ch.Taps[r][t] {
				angle := -2 * math.Pi * float64(k) * float64(sc) / float64(n)
				acc += g * cmplx.Exp(complex(0, angle))
			}
			h.Set(r, t, acc)
		}
	}
	return h
}

// DFTBeams returns an nBeams-by-nAnt beamforming matrix whose rows are
// DFT steering vectors scaled by 1/sqrt(nAnt) (unitary rows), the fixed
// coefficient set of the BF stage.
func DFTBeams(nBeams, nAnt int) *ref.Mat {
	w := ref.NewMat(nBeams, nAnt)
	scale := 1 / math.Sqrt(float64(nAnt))
	for b := 0; b < nBeams; b++ {
		for a := 0; a < nAnt; a++ {
			angle := -2 * math.Pi * float64(b) * float64(a) / float64(nAnt)
			w.Set(b, a, cmplx.Exp(complex(0, angle))*complex(scale, 0))
		}
	}
	return w
}

// EVMdB returns the error-vector magnitude of got versus want in dB.
func EVMdB(got, want []complex128) float64 {
	if len(got) != len(want) || len(got) == 0 {
		panic("waveform: EVMdB length mismatch")
	}
	var errP, sigP float64
	for i := range got {
		d := got[i] - want[i]
		errP += real(d)*real(d) + imag(d)*imag(d)
		sigP += real(want[i])*real(want[i]) + imag(want[i])*imag(want[i])
	}
	if errP == 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(errP/sigP)
}

// BER counts the bit-error rate between two bit strings.
func BER(got, want []byte) float64 {
	if len(got) != len(want) {
		panic("waveform: BER length mismatch")
	}
	if len(got) == 0 {
		return 0
	}
	errs := 0
	for i := range got {
		if got[i] != want[i] {
			errs++
		}
	}
	return float64(errs) / float64(len(got))
}

// RandBits draws n uniform bits.
func RandBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.IntN(2))
	}
	return out
}

// AddCyclicPrefix prepends the last cpLen samples of an OFDM symbol,
// turning the channel's linear convolution into a circular one for any
// impulse response no longer than cpLen+1 taps.
func AddCyclicPrefix(symbol []complex128, cpLen int) ([]complex128, error) {
	if cpLen < 0 || cpLen > len(symbol) {
		return nil, fmt.Errorf("waveform: cyclic prefix %d outside [0, %d]", cpLen, len(symbol))
	}
	out := make([]complex128, 0, len(symbol)+cpLen)
	out = append(out, symbol[len(symbol)-cpLen:]...)
	return append(out, symbol...), nil
}

// RemoveCyclicPrefix strips a prefix added by AddCyclicPrefix.
func RemoveCyclicPrefix(samples []complex128, cpLen int) ([]complex128, error) {
	if cpLen < 0 || cpLen >= len(samples) {
		return nil, fmt.Errorf("waveform: cyclic prefix %d outside [0, %d)", cpLen, len(samples))
	}
	out := make([]complex128, len(samples)-cpLen)
	copy(out, samples[cpLen:])
	return out, nil
}

// ApplyLinear convolves the transmit signals with the channel *linearly*
// (no circular wrap), modeling a real air interface where inter-symbol
// leakage must be absorbed by a cyclic prefix. The output length equals
// the input length; trailing taps spill into the cut-off region.
func (ch *Channel) ApplyLinear(rng *rand.Rand, tx [][]complex128, noiseStd float64) ([][]complex128, error) {
	if len(tx) != ch.NTx {
		return nil, fmt.Errorf("waveform: %d tx signals for a %d-antenna channel", len(tx), ch.NTx)
	}
	n := len(tx[0])
	for _, s := range tx {
		if len(s) != n {
			return nil, fmt.Errorf("waveform: tx signals of unequal length")
		}
	}
	out := make([][]complex128, ch.NRx)
	for r := 0; r < ch.NRx; r++ {
		y := make([]complex128, n)
		for t := 0; t < ch.NTx; t++ {
			for k, g := range ch.Taps[r][t] {
				if g == 0 {
					continue
				}
				for i := k; i < n; i++ {
					y[i] += g * tx[t][i-k]
				}
			}
		}
		for i := range y {
			y[i] += complex(rng.NormFloat64()*noiseStd, rng.NormFloat64()*noiseStd)
		}
		out[r] = y
	}
	return out, nil
}
