package fixed

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

const ulp = 1.0 / (1 << 15)

func TestPackRoundTrip(t *testing.T) {
	f := func(re, im int16) bool {
		c := Pack(re, im)
		return c.Re() == re && c.Im() == im
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	f := func(raw int16) bool {
		got := FloatToQ15(Q15ToFloat(raw))
		return got == raw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatToQ15Saturates(t *testing.T) {
	cases := []struct {
		in   float64
		want int16
	}{
		{1.0, MaxQ15},
		{2.5, MaxQ15},
		{-1.0, MinQ15},
		{-3.0, MinQ15},
		{0, 0},
		{0.5, 1 << 14},
		{-0.5, -(1 << 14)},
		{-0.25, -(1 << 13)},
	}
	for _, tc := range cases {
		if got := FloatToQ15(tc.in); got != tc.want {
			t.Errorf("FloatToQ15(%g) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestAddSubInverse(t *testing.T) {
	// For values away from the saturation rails, (a+b)-b == a.
	f := func(ar, ai, br, bi int8) bool {
		a := Pack(int16(ar)<<6, int16(ai)<<6)
		b := Pack(int16(br)<<6, int16(bi)<<6)
		return Sub(Add(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSaturates(t *testing.T) {
	big := Pack(MaxQ15, MinQ15)
	got := Add(big, big)
	if got.Re() != MaxQ15 || got.Im() != MinQ15 {
		t.Errorf("Add saturation: got (%d,%d)", got.Re(), got.Im())
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(ar, ai, br, bi int16) bool {
		a, b := Pack(ar, ai), Pack(br, bi)
		return Mul(a, b) == Mul(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulMatchesFloat(t *testing.T) {
	f := func(ar, ai, br, bi int16) bool {
		a, b := Pack(ar, ai), Pack(br, bi)
		got := Mul(a, b).Complex()
		want := a.Complex() * b.Complex()
		// One rounding step plus saturation: allow 1 ulp unless the exact
		// product saturates.
		if real(want) >= 1 || real(want) < -1 || imag(want) >= 1 || imag(want) < -1 {
			return true // saturating case, checked separately
		}
		return math.Abs(real(got)-real(want)) <= ulp && math.Abs(imag(got)-imag(want)) <= ulp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestHalfHalves(t *testing.T) {
	f := func(re, im int16) bool {
		c := Pack(re, im)
		h := Half(c)
		return math.Abs(Q15ToFloat(h.Re())-Q15ToFloat(re)/2) <= ulp &&
			math.Abs(Q15ToFloat(h.Im())-Q15ToFloat(im)/2) <= ulp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMacAccumulation(t *testing.T) {
	// A dot product through Acc must match the float dot product closely.
	f := func(vals [16][4]int16) bool {
		var acc Acc
		var want complex128
		for _, v := range vals {
			a, b := Pack(v[0], v[1]), Pack(v[2], v[3])
			acc = MacInto(acc, a, b)
			want += a.Complex() * b.Complex()
		}
		got := acc.Complex()
		return cmplx.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMacConjAbs2Consistency(t *testing.T) {
	f := func(re, im int16) bool {
		c := Pack(re, im)
		viaConj := MacConjInto(Acc{}, c, c)
		viaAbs2 := MacAbs2Into(Acc{}, c)
		return viaConj.Re == viaAbs2.Re && viaConj.Im == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNarrowRoundTrip(t *testing.T) {
	f := func(re, im int16) bool {
		c := Pack(re, im)
		// Widen to Q30 then narrow back with no extra shift.
		return AccFromC15(c).Narrow(0) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundShift(t *testing.T) {
	cases := []struct {
		v    int64
		s    uint
		want int64
	}{
		{0, 4, 0},
		{8, 4, 1},    // 0.5 rounds away
		{7, 4, 0},    // 0.4375 rounds down
		{-8, 4, -1},  // -0.5 rounds away
		{-7, 4, 0},   //
		{24, 4, 2},   // 1.5 -> 2
		{-24, 4, -2}, // -1.5 -> -2
	}
	for _, tc := range cases {
		if got := RoundShift(tc.v, tc.s); got != tc.want {
			t.Errorf("RoundShift(%d,%d) = %d, want %d", tc.v, tc.s, got, tc.want)
		}
	}
}

func TestISqrt32(t *testing.T) {
	for _, v := range []int64{0, 1, 2, 3, 4, 15, 16, 17, 1 << 30, 1<<62 - 1} {
		r := ISqrt32(v)
		if r*r > v || (r+1)*(r+1) <= v {
			t.Errorf("ISqrt32(%d) = %d: not floor sqrt", v, r)
		}
	}
	f := func(raw uint32) bool {
		v := int64(raw)
		r := ISqrt32(v)
		return r*r <= v && (r+1)*(r+1) > v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestSqrtQ30toQ15(t *testing.T) {
	f := func(raw int16) bool {
		if raw <= 0 {
			return SqrtQ30toQ15(int64(raw)) == 0
		}
		x := Q15ToFloat(raw)            // (0,1)
		v := int64(x * float64(OneQ30)) // Q30
		got := Q15ToFloat(SqrtQ30toQ15(v))
		return math.Abs(got-math.Sqrt(x)) <= 2*ulp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestDivQ30byQ15(t *testing.T) {
	f := func(numRaw int16, denRaw int16) bool {
		if denRaw == 0 {
			return true
		}
		num := int64(numRaw) << 13 // keep quotient inside Q15 most of the time
		x := float64(num) / float64(OneQ30)
		d := Q15ToFloat(denRaw)
		want := x / d
		got := Q15ToFloat(DivQ30byQ15(num, denRaw))
		if want >= 1 || want < -1 {
			return got == Q15ToFloat(MaxQ15) || got == Q15ToFloat(MinQ15)
		}
		return math.Abs(got-want) <= ulp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroSaturates(t *testing.T) {
	if got := DivQ30byQ15(123, 0); got != MaxQ15 {
		t.Errorf("DivQ30byQ15(+,0) = %d, want MaxQ15", got)
	}
	if got := DivQ30byQ15(-123, 0); got != MinQ15 {
		t.Errorf("DivQ30byQ15(-,0) = %d, want MinQ15", got)
	}
}

func TestCDivMatchesFloat(t *testing.T) {
	f := func(ar, ai, br, bi int16) bool {
		b := Pack(br, bi)
		// Avoid tiny denominators where relative quantization explodes.
		if real(b.Complex())*real(b.Complex())+imag(b.Complex())*imag(b.Complex()) < 0.01 {
			return true
		}
		a := Pack(ar, ai)
		want := a.Complex() / b.Complex()
		if real(want) >= 1 || real(want) < -1 || imag(want) >= 1 || imag(want) < -1 {
			return true // saturating case
		}
		got := CDiv(a, b).Complex()
		return cmplx.Abs(got-want) <= 0.002
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestCDivByUnitPilot(t *testing.T) {
	// Dividing by a unit-modulus QPSK pilot must be a pure rotation; the
	// channel-estimation kernel relies on this.
	pilots := []C15{
		Pack(FloatToQ15(math.Sqrt2/2), FloatToQ15(math.Sqrt2/2)),
		Pack(FloatToQ15(-math.Sqrt2/2), FloatToQ15(math.Sqrt2/2)),
		Pack(FloatToQ15(math.Sqrt2/2), FloatToQ15(-math.Sqrt2/2)),
		Pack(FloatToQ15(-math.Sqrt2/2), FloatToQ15(-math.Sqrt2/2)),
	}
	a := Pack(FloatToQ15(0.3), FloatToQ15(-0.4))
	for _, p := range pilots {
		got := CDiv(a, p).Complex()
		want := a.Complex() / p.Complex()
		if cmplx.Abs(got-want) > 0.001 {
			t.Errorf("CDiv by pilot %v: got %v want %v", p.Complex(), got, want)
		}
	}
}

func TestMulAccTwMatchesFloat(t *testing.T) {
	// The fused twiddle multiply must match the float product of the
	// accumulator value and the twiddle within one rounding step.
	f := func(ar, ai int16, wr, wi int16, sh uint8) bool {
		shift := uint(sh % 3) // the FFT uses shift 2; cover 0..2
		acc := Acc{Re: int64(ar) << 15, Im: int64(ai) << 15}
		w := Pack(wr, wi)
		got := MulAccTw(acc, w, shift).Complex()
		want := acc.Complex() * w.Complex() / complex(float64(int64(1)<<shift), 0)
		if real(want) >= 1 || real(want) < -1 || imag(want) >= 1 || imag(want) < -1 {
			return true // saturating case
		}
		return cmplx.Abs(got-want) <= 2*ulp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestMulNegJAccExact(t *testing.T) {
	f := func(re, im int32) bool {
		a := Acc{Re: int64(re), Im: int64(im)}
		r := MulNegJAcc(a)
		// (re + i*im) * -i = im - i*re
		return r.Re == int64(im) && r.Im == -int64(re)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
