package fixed

import (
	"math"
	"math/cmplx"
	"testing"
)

// FuzzMul checks that the complex product never escapes the Q1.15 range
// and stays within one rounding step of the float product.
func FuzzMul(f *testing.F) {
	f.Add(int16(100), int16(-200), int16(3000), int16(4000))
	f.Add(int16(MinQ15), int16(MinQ15), int16(MinQ15), int16(MinQ15))
	f.Add(int16(MaxQ15), int16(MaxQ15), int16(MaxQ15), int16(MaxQ15))
	f.Fuzz(func(t *testing.T, ar, ai, br, bi int16) {
		a, b := Pack(ar, ai), Pack(br, bi)
		p := Mul(a, b)
		z := p.Complex()
		if real(z) >= 1 || real(z) < -1 || imag(z) >= 1 || imag(z) < -1 {
			t.Fatalf("Mul escaped Q1.15: %v", z)
		}
		want := a.Complex() * b.Complex()
		// Saturated outputs clamp; otherwise one rounding step.
		if real(want) < 1 && real(want) >= -1 && imag(want) < 1 && imag(want) >= -1 {
			if cmplx.Abs(z-want) > 2.5/(1<<15) {
				t.Fatalf("Mul(%v, %v) = %v, float %v", a.Complex(), b.Complex(), z, want)
			}
		}
	})
}

// FuzzCDiv checks the complex division never panics and the quotient
// times the divisor approximates the dividend when well-conditioned.
func FuzzCDiv(f *testing.F) {
	f.Add(int16(1000), int16(2000), int16(8000), int16(-8000))
	f.Add(int16(0), int16(0), int16(0), int16(0))
	f.Add(int16(MaxQ15), int16(MinQ15), int16(1), int16(-1))
	f.Fuzz(func(t *testing.T, ar, ai, br, bi int16) {
		a, b := Pack(ar, ai), Pack(br, bi)
		q := CDiv(a, b) // must not panic, even for b == 0
		den := b.Complex()
		if cmplx.Abs(den) < 0.25 {
			return // ill-conditioned: only the no-panic property applies
		}
		want := a.Complex() / den
		if real(want) >= 1 || real(want) < -1 || imag(want) >= 1 || imag(want) < -1 {
			return // saturating quotient
		}
		if cmplx.Abs(q.Complex()-want) > 0.01 {
			t.Fatalf("CDiv(%v, %v) = %v, float %v", a.Complex(), den, q.Complex(), want)
		}
	})
}

// FuzzSqrt checks the fixed-point square root against its defining
// property on the full non-negative Q2.30 range.
func FuzzSqrt(f *testing.F) {
	f.Add(int64(0))
	f.Add(OneQ30 - 1)
	f.Add(int64(1))
	f.Fuzz(func(t *testing.T, v int64) {
		if v < 0 {
			v = -v
		}
		v %= OneQ30
		r := int64(SqrtQ30toQ15(v))
		// r is the nearest integer to sqrt(v): (r±0.5)^2 brackets v,
		// except at the rails (r = 0 has no lower bound; r = MaxQ15
		// saturates and has no upper bound).
		lo := 4*r*r - 4*r + 1 // (2r-1)^2
		hi := 4*r*r + 4*r + 1 // (2r+1)^2
		if r > 0 && 4*v < lo {
			t.Fatalf("SqrtQ30toQ15(%d) = %d: too large (4v=%d < %d)", v, r, 4*v, lo)
		}
		if r < MaxQ15 && 4*v > hi {
			t.Fatalf("SqrtQ30toQ15(%d) = %d: too small (4v=%d > %d)", v, r, 4*v, hi)
		}
	})
}

// roundShiftRef is RoundShift's two-branch form, the reference the
// branch-free form must match bit for bit.
func roundShiftRef(v int64, s uint) int64 {
	half := int64(1) << (s - 1)
	if v >= 0 {
		return (v + half) >> s
	}
	return -((-v + half) >> s)
}

// FuzzRoundShift holds RoundShift to its two-branch reference for every
// int64 and every shift in [1, 62], wrap-around included, and checks
// rounding symmetry: RoundShift(-v) == -RoundShift(v), for every v but
// math.MinInt64, whose negation wraps to itself.
func FuzzRoundShift(f *testing.F) {
	f.Add(int64(12345), uint8(4))
	f.Add(int64(-12345), uint8(15))
	for _, s := range []uint{1, 15, 45, 62} {
		half := int64(1) << (s - 1)
		for _, v := range []int64{0, 1, -1, half, -half, half - 1, -(half - 1), math.MinInt64, math.MaxInt64} {
			f.Add(v, uint8(s-1))
		}
	}
	f.Fuzz(func(t *testing.T, v int64, s uint8) {
		shift := uint(s%62) + 1
		if got, want := RoundShift(v, shift), roundShiftRef(v, shift); got != want {
			t.Fatalf("RoundShift(%d,%d) = %d, two-branch form gives %d", v, shift, got, want)
		}
		if v == math.MinInt64 {
			return
		}
		if got, want := RoundShift(-v, shift), -RoundShift(v, shift); got != want {
			t.Fatalf("RoundShift(-%d,%d) = %d, want %d", v, shift, got, want)
		}
	})
}
