package pusch

import (
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/waveform"
)

func TestTableIFormulas(t *testing.T) {
	d := UseCaseDims(4)
	macs := d.MACs()
	// Spot-check against hand-computed values.
	if got, want := macs[StageBF], 14.0*3276*64*32; got != want {
		t.Errorf("BF MACs = %g, want %g", got, want)
	}
	if got, want := macs[StageCHE], 2.0*3276*32*4; got != want {
		t.Errorf("CHE MACs = %g, want %g", got, want)
	}
	if got, want := macs[StageNE], 2.0*3276*2*32*4; got != want {
		t.Errorf("NE MACs = %g, want %g", got, want)
	}
	wantMIMO := 12.0 * 3276 * (math.Pow(4, 3)/3 + 2*16)
	if math.Abs(macs[StageMIMO]-wantMIMO) > 1 {
		t.Errorf("MIMO MACs = %g, want %g", macs[StageMIMO], wantMIMO)
	}
	wantOFDM := 14.0 * 64 * 3276 * math.Log2(3276)
	if math.Abs(macs[StageOFDM]-wantOFDM) > 1 {
		t.Errorf("OFDM MACs = %g, want %g", macs[StageOFDM], wantOFDM)
	}
}

func TestFig3Shape(t *testing.T) {
	// At low UE counts OFDM demodulation and beamforming dominate; the
	// MIMO share grows monotonically with NL (Fig. 3's message).
	prev := -1.0
	for _, nl := range []int{1, 2, 4, 8, 16, 32} {
		sh := UseCaseDims(nl).Shares()
		var sum float64
		for _, v := range sh {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("NL=%d: shares sum to %g", nl, sum)
		}
		if sh[StageMIMO] <= prev {
			t.Fatalf("MIMO share not increasing at NL=%d", nl)
		}
		prev = sh[StageMIMO]
		if nl <= 4 && sh[StageOFDM]+sh[StageBF] < 0.75 {
			t.Errorf("NL=%d: OFDM+BF share %.2f, expected dominance", nl, sh[StageOFDM]+sh[StageBF])
		}
	}
	// With 4 UEs beamforming (NR*NB per subcarrier) outweighs the FFT
	// (log2 NSC per subcarrier); together they dominate, which is the
	// paper's Amdahl argument for parallelizing FFT, MMM and Cholesky.
	macs := UseCaseDims(4).MACs()
	for _, s := range Stages {
		if s != StageBF && macs[s] >= macs[StageBF] {
			t.Errorf("%s MACs %.3e >= BF %.3e", s, macs[s], macs[StageBF])
		}
		if s != StageBF && s != StageOFDM && macs[s] >= macs[StageOFDM] {
			t.Errorf("%s MACs %.3e >= OFDM %.3e", s, macs[s], macs[StageOFDM])
		}
	}
}

func TestDimsValidate(t *testing.T) {
	bad := []Dims{
		{},
		{NSC: -1, NSymb: 14, NPilot: 2, NR: 64, NB: 32, NL: 4},
		{NSC: 3276, NSymb: 14, NPilot: 14, NR: 64, NB: 32, NL: 4},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: invalid dims accepted", i)
		}
	}
	if err := UseCaseDims(4).Validate(); err != nil {
		t.Errorf("reference dims rejected: %v", err)
	}
}

func TestTableIAndFig3Render(t *testing.T) {
	tab := UseCaseDims(4).TableI()
	for _, frag := range []string{"Fast Fourier transform", "Cholesky", "Total"} {
		if !contains(tab, frag) {
			t.Errorf("TableI missing %q", frag)
		}
	}
	fig := Fig3Table([]int{1, 4, 32})
	if !contains(fig, "%") || !contains(fig, "Beamforming") {
		t.Error("Fig3Table malformed")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestChainConfigValidation(t *testing.T) {
	base := ChainConfig{
		NSC: 256, NR: 16, NB: 8, NL: 4, NSymb: 4, NPilot: 2,
		Scheme: waveform.QPSK, SNRdB: 25,
	}
	cases := []struct {
		name string
		mut  func(*ChainConfig)
	}{
		{"NSC not power of 4", func(c *ChainConfig) { c.NSC = 100 }},
		{"NR not multiple of 4", func(c *ChainConfig) { c.NR = 6 }},
		{"NB > NR", func(c *ChainConfig) { c.NB = 32 }},
		{"NL too big", func(c *ChainConfig) { c.NL = 8 }},
		{"one pilot", func(c *ChainConfig) { c.NPilot = 1 }},
		{"no data symbols", func(c *ChainConfig) { c.NSymb = 2 }},
		// Each of these panicked before validation bounded it: makeslice
		// in NewSlotTX and in the channel, NewMachine on the cluster.
		{"NSymb beyond one slot", func(c *ChainConfig) { c.NSymb = 1 << 62 }},
		{"NR beyond L1", func(c *ChainConfig) { c.NR = 1 << 62 }},
		{"zero bank words", func(c *ChainConfig) {
			cl := *arch.MemPool()
			cl.BankWords = 0
			c.Cluster = &cl
		}},
		// Non-finite link parameters used to run and score BER ~0.5.
		{"NaN SNR", func(c *ChainConfig) { c.SNRdB = math.NaN() }},
		{"-Inf SNR", func(c *ChainConfig) { c.SNRdB = math.Inf(-1) }},
		{"+Inf data amplitude", func(c *ChainConfig) { c.DataAmp = math.Inf(1) }},
		{"NaN pilot amplitude", func(c *ChainConfig) { c.PilotAmp = math.NaN() }},
		{"NaN Doppler", func(c *ChainConfig) { c.Channel = channel.Spec{Profile: channel.TDLB, DopplerHz: math.NaN()} }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := RunChain(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// These panicked in the slot's TX (an unknown scheme, makeslice in
	// the channel) before validation named the field; the cache key,
	// which validates through Normalized, refuses them too.
	for _, tc := range []struct {
		field string
		mut   func(*ChainConfig)
	}{
		{"Scheme", func(c *ChainConfig) { c.Scheme = waveform.Scheme(9) }},
		{"Scheme", func(c *ChainConfig) { c.Scheme = -1 }},
		{"Taps", func(c *ChainConfig) { c.Taps = -1 }},
		{"Taps", func(c *ChainConfig) { c.Taps = base.NSC/4 + 1 }},
		{"Taps", func(c *ChainConfig) { c.Taps = 1 << 62 }},
	} {
		cfg := base
		tc.mut(&cfg)
		if _, err := RunChain(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: error %v, want one naming %s", cfg, err, tc.field)
		}
		if _, err := cfg.CacheKey(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: CacheKey error %v, want one naming %s", cfg, err, tc.field)
		}
	}
	// NSC/4 taps, the lag cap, is in range.
	cfg := base
	cfg.Taps = base.NSC / 4
	if _, err := cfg.Normalized(); err != nil {
		t.Errorf("Taps %d: %v", cfg.Taps, err)
	}
}

// TestChainEndToEnd is the headline functional test: a full slot through
// transmitters, channel, and every receive kernel on the simulator, with
// error-free QPSK detection at high SNR.
func TestChainEndToEnd(t *testing.T) {
	res, err := RunChain(ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     256, NR: 16, NB: 8, NL: 4,
		NSymb: 4, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  28,
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BER > 0.001 {
		t.Errorf("BER = %g, want ~0 at 28 dB QPSK", res.BER)
	}
	if res.EVMdB > -10 {
		t.Errorf("EVM = %.1f dB, want below -10", res.EVMdB)
	}
	if res.SigmaEst <= 0 {
		t.Errorf("noise estimate %g not positive", res.SigmaEst)
	}
	if res.TotalCycles <= 0 {
		t.Error("no cycles accounted")
	}
	for _, st := range []Stage{StageOFDM, StageBF, StageCHE, StageNE, StageMIMO} {
		rep, ok := res.Stages[st]
		if !ok || rep.Wall == 0 {
			t.Errorf("stage %s missing from the report", st)
		}
	}
	// Beamforming runs every symbol and must be a major contributor.
	if res.Stages[StageBF].Wall == 0 {
		t.Error("beamforming stage has no cycles")
	}
}

// TestChainDetectsMoreUEs runs NL=2 to cover a second MIMO geometry.
func TestChainDetectsMoreUEs(t *testing.T) {
	res, err := RunChain(ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     256, NR: 16, NB: 8, NL: 2,
		NSymb: 3, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  28,
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BER > 0.001 {
		t.Errorf("BER = %g", res.BER)
	}
}

// TestUseCaseSmall runs the Fig. 9c machinery at reduced scale so it
// stays unit-test fast, checking structure rather than magnitude.
func TestUseCaseSmall(t *testing.T) {
	res, err := RunUseCase(UseCaseConfig{
		Cluster:      arch.MemPool(),
		Symbols:      14,
		DataSymbols:  12,
		NFFT:         1024,
		NR:           16,
		NB:           8,
		NL:           4,
		CholPerRound: 4,
		WithSerial:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != res.FFT.Total+res.MMM.Total+res.Chol.Total {
		t.Error("totals do not add up")
	}
	sh := res.Shares()
	var sum float64
	for _, v := range sh {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
	if res.FFT.Passes != 14 || res.MMM.Passes != 14 {
		t.Errorf("pass counts %d/%d, want 14/14", res.FFT.Passes, res.MMM.Passes)
	}
	// 1024 decs per data symbol over 256 cores = 4 per core per symbol;
	// at 4 per barrier that is 12 passes.
	if res.Chol.Passes != 12 {
		t.Errorf("chol passes = %d, want 12", res.Chol.Passes)
	}
	if res.Speedup < 16 || res.Speedup > 256 {
		t.Errorf("speedup %.0f outside (16, 256) for MemPool", res.Speedup)
	}
	if res.TimeMs <= 0 {
		t.Error("no time computed")
	}
}

func TestUseCaseValidation(t *testing.T) {
	bad := DefaultUseCase()
	bad.Symbols = 0
	if _, err := RunUseCase(bad); err == nil {
		t.Error("zero symbols accepted")
	}
	bad = DefaultUseCase()
	bad.CholPerRound = 0
	if _, err := RunUseCase(bad); err == nil {
		t.Error("zero CholPerRound accepted")
	}
}

// TestUseCaseRedBeatsGreen: batching 16 decompositions per barrier (the
// paper's red schedule) must not be slower than 4 per barrier (green),
// mirroring the 871-vs-848 ordering.
func TestUseCaseRedBeatsGreen(t *testing.T) {
	run := func(per int) int64 {
		res, err := RunUseCase(UseCaseConfig{
			Cluster:      arch.MemPool(),
			Symbols:      14,
			DataSymbols:  12,
			NFFT:         1024,
			NR:           16,
			NB:           8,
			NL:           4,
			CholPerRound: per,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalCycles
	}
	green := run(4)
	red := run(16)
	if red > green {
		t.Errorf("red schedule (%d cycles) slower than green (%d)", red, green)
	}
}

// TestChainOnTeraPool runs the functional chain on the larger cluster.
func TestChainOnTeraPool(t *testing.T) {
	res, err := RunChain(ChainConfig{
		Cluster: arch.TeraPool(),
		NSC:     256, NR: 16, NB: 8, NL: 4,
		NSymb: 3, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  28,
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BER > 0.001 {
		t.Errorf("TeraPool chain BER %g", res.BER)
	}
}

// TestChain16QAM: the denser constellation still decodes cleanly at high
// SNR, exercising the fixed-point headroom of the whole chain.
func TestChain16QAM(t *testing.T) {
	res, err := RunChain(ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     256, NR: 16, NB: 8, NL: 2,
		NSymb: 3, NPilot: 2,
		Scheme:  waveform.QAM16,
		SNRdB:   34,
		DataAmp: 0.3,
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BER > 0.02 {
		t.Errorf("16QAM BER %g at 34 dB", res.BER)
	}
}

// TestChainInterpolationHelps: on a more frequency-selective channel the
// interpolated MIMO gather must not degrade the link, and typically
// improves it.
func TestChainInterpolationHelps(t *testing.T) {
	run := func(interp bool) float64 {
		res, err := RunChain(ChainConfig{
			Cluster: arch.MemPool(),
			NSC:     256, NR: 16, NB: 8, NL: 4,
			NSymb: 3, NPilot: 2,
			Scheme:             waveform.QPSK,
			SNRdB:              30,
			Taps:               8,
			Seed:               77,
			InterpolateChannel: interp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.EVMdB
	}
	nearest := run(false)
	interp := run(true)
	if interp > nearest+0.5 {
		t.Errorf("interpolated EVM %.1f dB worse than nearest %.1f dB", interp, nearest)
	}
	t.Logf("EVM nearest %.2f dB, interpolated %.2f dB", nearest, interp)
}

func TestPayloadBits(t *testing.T) {
	// Reference allocation: 12 data symbols x 3276 subcarriers x 4 UEs
	// at 4 bits/symbol (16-QAM).
	d := UseCaseDims(4)
	want := int64(12) * 3276 * 4 * 4
	if got := d.PayloadBits(4); got != want {
		t.Errorf("PayloadBits(4) = %d, want %d", got, want)
	}
	if got := d.PayloadBits(2); got != want/2 {
		t.Errorf("PayloadBits(2) = %d, want %d", got, want/2)
	}
}

func TestChainRecord(t *testing.T) {
	cfg := ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     256, NR: 16, NB: 8, NL: 4,
		NSymb: 4, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  28,
		Seed:   7,
	}
	res, err := RunChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Record(cfg)
	if rec.Kind != "chain" || rec.Cluster != "MemPool" || rec.Scheme != "qpsk" {
		t.Errorf("record identity = %s/%s/%s", rec.Kind, rec.Cluster, rec.Scheme)
	}
	if len(rec.Phases) != len(Stages) {
		t.Errorf("%d phases, want %d", len(rec.Phases), len(Stages))
	}
	if rec.Phases[0].Name != string(StageOFDM) {
		t.Errorf("first phase %q, want OFDM", rec.Phases[0].Name)
	}
	// 2 data symbols x 256 subcarriers x 4 UEs x 2 bits (QPSK).
	if want := int64(2 * 256 * 4 * 2); rec.PayloadBits != want {
		t.Errorf("payload = %d bits, want %d", rec.PayloadBits, want)
	}
	if rec.ThroughputGbps <= 0 || rec.TotalCycles != res.TotalCycles {
		t.Errorf("throughput %g Gb/s over %d cycles", rec.ThroughputGbps, rec.TotalCycles)
	}
	var shares float64
	for _, p := range rec.Phases {
		shares += p.Share
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("phase shares sum to %g, want 1", shares)
	}
}

func TestUseCaseRecord(t *testing.T) {
	cfg := UseCaseConfig{
		Cluster:      arch.MemPool(),
		Symbols:      14,
		DataSymbols:  12,
		NFFT:         1024,
		NR:           16,
		NB:           8,
		NL:           4,
		CholPerRound: 4,
		WithSerial:   true,
	}
	res, err := RunUseCase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Record(cfg)
	if rec.Kind != "usecase" || rec.CholPerRound != 4 || rec.UEs != 4 {
		t.Errorf("record identity = %+v", rec)
	}
	if len(rec.Phases) != 3 || rec.Phases[0].Name != "OFDM FFT" {
		t.Errorf("phases = %+v", rec.Phases)
	}
	if rec.TotalCycles != res.TotalCycles || rec.SerialCycles != res.SerialCycles {
		t.Error("record cycles disagree with the result")
	}
	// 16-QAM payload over the allocated share of the scaled FFT:
	// 1024-point FFT keeps the reference 3276/4096 allocation ratio.
	if want := int64(12) * (1024 * 3276 / 4096) * 4 * 4; rec.PayloadBits != want {
		t.Errorf("payload = %d bits, want %d", rec.PayloadBits, want)
	}
	if rec.ThroughputGbps <= 0 || rec.Speedup != res.Speedup {
		t.Errorf("throughput %g, speedup %g", rec.ThroughputGbps, rec.Speedup)
	}
}
