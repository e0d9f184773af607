// Package fixed implements the 16-bit fixed-point arithmetic used by the
// PUSCH kernels: complex samples packed as two Q1.15 halves in one 32-bit
// word (the layout that gives the paper's "8 loads of 32-bit words per 16
// complex MACs" budget for the 4x4 MMM window), with widening Q2.30
// accumulators, round-to-nearest scaling, saturation, and the iterative
// square root and division the Cholesky kernel needs.
//
// Conventions:
//   - Q15 values represent the range [-1, 1): x = raw / 2^15.
//   - Accumulators hold sums of Q15*Q15 products, i.e. Q30 fractions in
//     int64, so up to 2^33 products fit without overflow.
//   - All narrowing conversions round to nearest (ties away from zero)
//     and saturate to [MinQ15, MaxQ15].
package fixed

import "math"

// Q15 bounds as int32 for clamping.
const (
	MaxQ15 = 1<<15 - 1  // 0.999969...
	MinQ15 = -(1 << 15) // -1.0
	// OneQ30 is the Q30 representation of 1.0 used by accumulators.
	OneQ30 = int64(1) << 30
)

// C15 is a complex sample packed into one 32-bit word: bits 15..0 hold
// the real part, bits 31..16 the imaginary part, both Q1.15 two's
// complement. C15 is the word type stored in the simulated L1 memory.
type C15 uint32

// Pack builds a C15 from raw Q1.15 components.
func Pack(re, im int16) C15 {
	return C15(uint16(re)) | C15(uint16(im))<<16
}

// Re returns the raw Q1.15 real component.
func (c C15) Re() int16 { return int16(uint16(c)) }

// Im returns the raw Q1.15 imaginary component.
func (c C15) Im() int16 { return int16(uint16(c >> 16)) }

// SatQ15 clamps a wide integer to the Q1.15 range.
func SatQ15(v int64) int16 {
	if v > MaxQ15 {
		return MaxQ15
	}
	if v < MinQ15 {
		return MinQ15
	}
	return int16(v)
}

// RoundShift arithmetic-shifts v right by s bits with round-to-nearest,
// ties away from zero. s must be in [1, 62]. It does the integer
// operations of the two-branch form — (v+half)>>s for v >= 0, else
// -((-v+half)>>s) — wrap-around included, but selects by sign without a
// branch, since the sign of signal data is unpredictable: sign = v>>63
// is 0 or -1, and (x^sign)-sign is x or -x accordingly.
func RoundShift(v int64, s uint) int64 {
	half := int64(1) << (s - 1)
	sign := v >> 63
	a := (v ^ sign) - sign
	return (((a + half) >> s) ^ sign) - sign
}

// FloatToQ15 converts a float in [-1, 1) to raw Q1.15 with rounding and
// saturation.
func FloatToQ15(f float64) int16 {
	return SatQ15(int64(math.Round(f * (1 << 15))))
}

// Q15ToFloat converts a raw Q1.15 value to float64.
func Q15ToFloat(v int16) float64 { return float64(v) / (1 << 15) }

// FromComplex quantizes a complex128 to a packed C15.
func FromComplex(z complex128) C15 {
	return Pack(FloatToQ15(real(z)), FloatToQ15(imag(z)))
}

// Complex returns the float value of a packed sample.
func (c C15) Complex() complex128 {
	return complex(Q15ToFloat(c.Re()), Q15ToFloat(c.Im()))
}

// Add returns a+b with per-component saturation.
func Add(a, b C15) C15 {
	return Pack(
		SatQ15(int64(a.Re())+int64(b.Re())),
		SatQ15(int64(a.Im())+int64(b.Im())),
	)
}

// Sub returns a-b with per-component saturation.
func Sub(a, b C15) C15 {
	return Pack(
		SatQ15(int64(a.Re())-int64(b.Re())),
		SatQ15(int64(a.Im())-int64(b.Im())),
	)
}

// Half returns a/2 per component with round-to-nearest. FFT stages use it
// to keep magnitudes inside Q1.15.
func Half(a C15) C15 {
	return Pack(
		SatQ15(RoundShift(int64(a.Re()), 1)),
		SatQ15(RoundShift(int64(a.Im()), 1)),
	)
}

// Mul returns the complex product a*b rounded back to Q1.15.
func Mul(a, b C15) C15 {
	ar, ai := int64(a.Re()), int64(a.Im())
	br, bi := int64(b.Re()), int64(b.Im())
	re := RoundShift(ar*br-ai*bi, 15)
	im := RoundShift(ar*bi+ai*br, 15)
	return Pack(SatQ15(re), SatQ15(im))
}

// Acc is a widening complex accumulator in Q2.30 (int64 components), the
// register pair a MAC loop keeps between loads.
type Acc struct {
	Re, Im int64
}

// MacInto returns acc + a*b without narrowing.
func MacInto(acc Acc, a, b C15) Acc {
	ar, ai := int64(a.Re()), int64(a.Im())
	br, bi := int64(b.Re()), int64(b.Im())
	acc.Re += ar*br - ai*bi
	acc.Im += ar*bi + ai*br
	return acc
}

// MacConjInto returns acc + a*conj(b) without narrowing.
func MacConjInto(acc Acc, a, b C15) Acc {
	ar, ai := int64(a.Re()), int64(a.Im())
	br, bi := int64(b.Re()), int64(b.Im())
	acc.Re += ar*br + ai*bi
	acc.Im += ai*br - ar*bi
	return acc
}

// MacAbs2Into returns acc + |a|^2 accumulated into the real component.
func MacAbs2Into(acc Acc, a C15) Acc {
	ar, ai := int64(a.Re()), int64(a.Im())
	acc.Re += ar*ar + ai*ai
	return acc
}

// SubAcc returns a-b component-wise.
func SubAcc(a, b Acc) Acc { return Acc{Re: a.Re - b.Re, Im: a.Im - b.Im} }

// AddAcc returns a+b component-wise.
func AddAcc(a, b Acc) Acc { return Acc{Re: a.Re + b.Re, Im: a.Im + b.Im} }

// MulNegJAcc returns a*(-j) exactly: (re,im) -> (im,-re).
func MulNegJAcc(a Acc) Acc { return Acc{Re: a.Im, Im: -a.Re} }

// MulAccTw multiplies a Q2.30 accumulator by a packed Q1.15 twiddle and
// narrows to Q1.15 with a single rounding, scaling by 2^-shift: the fused
// twiddle-multiply of the FFT butterfly. Rounding only once here (instead
// of per intermediate op) models the widened datapath of the packed-SIMD
// complex-multiply instructions.
func MulAccTw(a Acc, w C15, shift uint) C15 {
	wr, wi := int64(w.Re()), int64(w.Im())
	// a is Q30, w is Q15: products are Q45; renormalize to Q15.
	re := RoundShift(a.Re*wr-a.Im*wi, 30+shift)
	im := RoundShift(a.Re*wi+a.Im*wr, 30+shift)
	return Pack(SatQ15(re), SatQ15(im))
}

// AccFromC15 widens a Q1.15 sample to a Q2.30 accumulator.
func AccFromC15(a C15) Acc {
	return Acc{Re: int64(a.Re()) << 15, Im: int64(a.Im()) << 15}
}

// Narrow converts the accumulator back to Q1.15, dividing by 2^shift
// first (shift >= 0 scales down by that power of two on top of the Q30 to
// Q15 renormalization).
func (a Acc) Narrow(shift uint) C15 {
	return Pack(
		SatQ15(RoundShift(a.Re, 15+shift)),
		SatQ15(RoundShift(a.Im, 15+shift)),
	)
}

// Complex returns the float value of the accumulator interpreted as Q2.30.
func (a Acc) Complex() complex128 {
	return complex(float64(a.Re)/float64(OneQ30), float64(a.Im)/float64(OneQ30))
}

// ISqrt32 computes floor(sqrt(v)) for v >= 0 using the non-restoring
// integer square root the divide/sqrt unit implements in hardware.
func ISqrt32(v int64) int64 {
	if v <= 0 {
		return 0
	}
	var res int64
	bit := int64(1) << 62
	for bit > v {
		bit >>= 2
	}
	for bit != 0 {
		if v >= res+bit {
			v -= res + bit
			res = res>>1 + bit
		} else {
			res >>= 1
		}
		bit >>= 2
	}
	return res
}

// SqrtQ30toQ15 computes sqrt of a non-negative Q2.30 value and returns it
// as Q1.15: since sqrt(v/2^30) * 2^15 = sqrt(v), this is the plain
// integer square root, rounded to nearest.
func SqrtQ30toQ15(v int64) int16 {
	if v <= 0 {
		return 0
	}
	r := ISqrt32(v)
	// Round to nearest: if (r+1)^2 is closer to v, use r+1.
	if (r+1)*(r+1)-v < v-r*r {
		r++
	}
	return SatQ15(r)
}

// DivQ30byQ15 computes num/den where num is Q2.30 and den is Q1.15,
// producing Q1.15: (num/2^30)/(den/2^15) * 2^15 = num/den. Rounds to
// nearest and saturates. Division by zero saturates toward the sign of
// num, mirroring the hardware's saturating divider behaviour.
func DivQ30byQ15(num int64, den int16) int16 {
	if den == 0 {
		if num >= 0 {
			return MaxQ15
		}
		return MinQ15
	}
	return SatQ15(divRound(num, int64(den)))
}

// CDiv computes a/b in Q1.15 complex arithmetic:
// a/b = a*conj(b) / |b|^2, evaluated with Q30 intermediates.
func CDiv(a, b C15) C15 {
	den := int64(b.Re())*int64(b.Re()) + int64(b.Im())*int64(b.Im()) // Q30
	num := MacConjInto(Acc{}, a, b)                                  // Q30
	if den == 0 {
		return Pack(SatQ15(num.Re), SatQ15(num.Im)) // saturating fallback
	}
	// (num/2^30)/(den/2^30) = num/den; scale to Q15.
	re := divRound(num.Re<<15, den)
	im := divRound(num.Im<<15, den)
	return Pack(SatQ15(re), SatQ15(im))
}

func divRound(num, den int64) int64 {
	q := num / den
	r := num - q*den
	if 2*abs64(r) >= abs64(den) {
		if (num < 0) != (den < 0) {
			q--
		} else {
			q++
		}
	}
	return q
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
