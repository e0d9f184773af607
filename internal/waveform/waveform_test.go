package waveform

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ref"
)

func TestGoldSequenceProperties(t *testing.T) {
	a := GoldSequence(12345, 4096)
	b := GoldSequence(12345, 4096)
	c := GoldSequence(54321, 4096)
	// Deterministic.
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("GoldSequence not deterministic")
		}
	}
	// Different inits give different sequences.
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 2300 || same < 1800 {
		t.Errorf("sequences with different inits agree on %d/4096 bits", same)
	}
	// Roughly balanced.
	ones := 0
	for _, v := range a {
		ones += int(v)
	}
	if ones < 1800 || ones > 2300 {
		t.Errorf("bit balance %d/4096", ones)
	}
}

func TestQPSKPilotsUnitModulus(t *testing.T) {
	p := QPSKPilots(7, 256, 0.7)
	for i, v := range p {
		if math.Abs(cmplx.Abs(v)-0.7) > 1e-12 {
			t.Fatalf("pilot %d has modulus %g", i, cmplx.Abs(v))
		}
	}
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, s := range []Scheme{QPSK, QAM16, QAM64} {
		bits := RandBits(rng, 50*s.BitsPerSymbol())
		syms, err := Modulate(s, bits, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		back := Demodulate(s, syms, 0.8)
		if BER(back, bits) != 0 {
			t.Errorf("%s: clean round trip has bit errors", s)
		}
	}
}

func TestModulateRejectsBadLength(t *testing.T) {
	if _, err := Modulate(QAM16, make([]byte, 3), 1); err == nil {
		t.Error("Modulate accepted misaligned bit count")
	}
}

func TestConstellationUnitEnergy(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, s := range []Scheme{QPSK, QAM16, QAM64} {
		bits := RandBits(rng, 3000*s.BitsPerSymbol())
		syms, err := Modulate(s, bits, 1)
		if err != nil {
			t.Fatal(err)
		}
		var p float64
		for _, v := range syms {
			p += real(v)*real(v) + imag(v)*imag(v)
		}
		p /= float64(len(syms))
		if math.Abs(p-1) > 0.08 {
			t.Errorf("%s: average energy %g, want ~1", s, p)
		}
	}
}

func TestDemodulateNoisy(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	bits := RandBits(rng, 2000)
	syms, err := Modulate(QPSK, bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Mild noise: QPSK at this SNR must be error-free.
	for i := range syms {
		syms[i] += complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
	}
	if got := BER(Demodulate(QPSK, syms, 1), bits); got != 0 {
		t.Errorf("QPSK BER %g at high SNR", got)
	}
}

func TestOFDMUnitary(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	n := 256
	freq := make([]complex128, n)
	for i := range freq {
		freq[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	time := OFDMModulate(freq)
	if math.Abs(ref.RMS(time)-ref.RMS(freq)) > 1e-9 {
		t.Errorf("OFDM not unitary: time RMS %g vs freq RMS %g", ref.RMS(time), ref.RMS(freq))
	}
	// FFT/n of the time signal recovers freq/sqrt(n).
	back := ref.FFTRadix4(time)
	for i := range back {
		want := freq[i] * complex(math.Sqrt(float64(n)), 0)
		if cmplx.Abs(back[i]-want) > 1e-9 {
			t.Fatalf("bin %d: %v, want %v", i, back[i], want)
		}
	}
}

func TestChannelFrequencyResponseConsistent(t *testing.T) {
	// Applying the channel in time domain must equal multiplying by the
	// frequency response per subcarrier.
	rng := rand.New(rand.NewPCG(9, 10))
	n := 64
	ch := NewChannel(rng, 3, 2, 4)
	tx := make([][]complex128, 2)
	freq := make([][]complex128, 2)
	for t2 := range tx {
		freq[t2] = make([]complex128, n)
		for i := range freq[t2] {
			freq[t2][i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		tx[t2] = OFDMModulate(freq[t2])
	}
	rx, err := ch.Apply(rng, tx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		spec := ref.FFTRadix4(rx[r])
		for sc := 0; sc < n; sc++ {
			h := ch.FrequencyResponse(sc, n)
			var want complex128
			for t2 := 0; t2 < 2; t2++ {
				want += h.At(r, t2) * freq[t2][sc] * complex(math.Sqrt(float64(n)), 0)
			}
			if cmplx.Abs(spec[sc]-want) > 1e-6 {
				t.Fatalf("rx %d sc %d: %v, want %v", r, sc, spec[sc], want)
			}
		}
	}
}

func TestChannelValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	ch := NewChannel(rng, 2, 2, 2)
	if _, err := ch.Apply(rng, make([][]complex128, 3), 0); err == nil {
		t.Error("wrong tx count accepted")
	}
	bad := [][]complex128{make([]complex128, 8), make([]complex128, 4)}
	if _, err := ch.Apply(rng, bad, 0); err == nil {
		t.Error("unequal tx lengths accepted")
	}
}

func TestDFTBeamsUnitaryRows(t *testing.T) {
	for _, dim := range [][2]int{{4, 8}, {8, 16}} {
		nb, na := dim[0], dim[1]
		w := DFTBeams(nb, na)
		for b := 0; b < nb; b++ {
			var p float64
			for a := 0; a < na; a++ {
				v := w.At(b, a)
				p += real(v)*real(v) + imag(v)*imag(v)
			}
			if math.Abs(p-1) > 1e-12 {
				t.Errorf("%dx%d: beam %d row energy %g", nb, na, b, p)
			}
		}
	}
}

func TestBERAndEVM(t *testing.T) {
	if BER([]byte{0, 1, 1}, []byte{0, 1, 0}) != 1.0/3 {
		t.Error("BER miscounted")
	}
	got := []complex128{1, 1i}
	if !math.IsInf(EVMdB(got, got), -1) {
		t.Error("EVM of identical vectors not -inf")
	}
	f := func(re, im float64) bool {
		d := complex(math.Mod(re, 1)/10, math.Mod(im, 1)/10)
		w := []complex128{1, -1, 1i, -1i}
		g := []complex128{1 + d, -1 + d, 1i + d, -1i + d}
		return EVMdB(g, w) <= 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSchemeString(t *testing.T) {
	if QPSK.String() != "QPSK" || QAM16.String() != "16QAM" || QAM64.String() != "64QAM" {
		t.Error("Scheme.String mismatch")
	}
	for _, s := range []Scheme{QPSK, QAM16, QAM64, Scheme(7)} {
		if got, want := s.Name(), strings.ToLower(s.String()); got != want {
			t.Errorf("%s: Name %q, want %q", s, got, want)
		}
	}
	for s, want := range map[Scheme]int{QPSK: 2, QAM16: 4, QAM64: 6} {
		if got := s.BitsPerSymbol(); got != want {
			t.Errorf("%s: %d bits per symbol, want %d", s, got, want)
		}
	}
}

// TestBERImprovesWithSNR: across a QPSK link through the same channel,
// higher SNR can never hurt (statistically, with fixed seeds).
func TestBERImprovesWithSNR(t *testing.T) {
	ber := func(noiseStd float64) float64 {
		rng := rand.New(rand.NewPCG(42, 42))
		n := 256
		bits := RandBits(rng, 2*n)
		syms, err := Modulate(QPSK, bits, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		tx := OFDMModulate(syms)
		ch := NewChannel(rng, 1, 1, 1)
		// Single-tap SISO channel: equalize by the known tap.
		rx, err := ch.Apply(rng, [][]complex128{tx}, noiseStd)
		if err != nil {
			t.Fatal(err)
		}
		spec := ref.FFTRadix4(rx[0])
		tap := ch.Taps[0][0][0]
		eq := make([]complex128, n)
		for i := range eq {
			eq[i] = spec[i] / complex(math.Sqrt(float64(n)), 0) / tap
		}
		return BER(Demodulate(QPSK, eq, 0.5), bits)
	}
	low := ber(0.30)  // harsh noise
	high := ber(0.01) // clean
	if high != 0 {
		t.Errorf("clean link has BER %g", high)
	}
	if low <= high {
		t.Errorf("noisy BER %g not above clean %g", low, high)
	}
}

// TestQAM64RoundTripThroughOFDM covers the densest constellation end to
// end through the OFDM modulator.
func TestQAM64RoundTripThroughOFDM(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	n := 64
	bits := RandBits(rng, 6*n)
	syms, err := Modulate(QAM64, bits, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	time := OFDMModulate(syms)
	spec := ref.FFTRadix4(time)
	back := make([]complex128, n)
	for i := range back {
		back[i] = spec[i] / complex(math.Sqrt(float64(n)), 0)
	}
	if got := BER(Demodulate(QAM64, back, 0.5), bits); got != 0 {
		t.Errorf("noiseless 64QAM round trip BER %g", got)
	}
}

// TestCyclicPrefixEquivalence: linear convolution of a CP-extended
// symbol, after CP removal, equals circular convolution of the bare
// symbol — the identity OFDM relies on.
func TestCyclicPrefixEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	n, cp, taps := 64, 8, 5
	ch := NewChannel(rng, 2, 1, taps)
	freq := make([]complex128, n)
	for i := range freq {
		freq[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	symbol := OFDMModulate(freq)

	// Path 1: circular convolution (the shortcut Apply uses).
	rngA := rand.New(rand.NewPCG(1, 1))
	circ, err := ch.Apply(rngA, [][]complex128{symbol}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Path 2: CP + linear convolution + CP removal.
	withCP, err := AddCyclicPrefix(symbol, cp)
	if err != nil {
		t.Fatal(err)
	}
	rngB := rand.New(rand.NewPCG(1, 1))
	lin, err := ch.ApplyLinear(rngB, [][]complex128{withCP}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		stripped, err := RemoveCyclicPrefix(lin[r], cp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range stripped {
			if cmplx.Abs(stripped[i]-circ[r][i]) > 1e-12 {
				t.Fatalf("rx %d sample %d: linear+CP %v != circular %v", r, i, stripped[i], circ[r][i])
			}
		}
	}
}

func TestCyclicPrefixValidation(t *testing.T) {
	if _, err := AddCyclicPrefix(make([]complex128, 8), 9); err == nil {
		t.Error("oversized CP accepted")
	}
	if _, err := AddCyclicPrefix(make([]complex128, 8), -1); err == nil {
		t.Error("negative CP accepted")
	}
	if _, err := RemoveCyclicPrefix(make([]complex128, 8), 8); err == nil {
		t.Error("CP consuming the whole symbol accepted")
	}
	if _, err := RemoveCyclicPrefix(make([]complex128, 8), -1); err == nil {
		t.Error("negative CP removal accepted")
	}
	// Round trip.
	sym := []complex128{1, 2, 3, 4}
	withCP, err := AddCyclicPrefix(sym, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(withCP) != 6 || withCP[0] != 3 || withCP[1] != 4 {
		t.Errorf("CP content wrong: %v", withCP)
	}
	back, err := RemoveCyclicPrefix(withCP, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sym {
		if back[i] != sym[i] {
			t.Fatal("CP round trip mismatch")
		}
	}
}
