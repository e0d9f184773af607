package campaign

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/pusch"
	"repro/internal/waveform"
)

// testBase is a chain configuration small enough that a whole sweep runs
// in well under a second.
func testBase() pusch.ChainConfig {
	return pusch.ChainConfig{
		NSC: 64, NR: 4, NB: 4, NL: 2,
		NSymb: 3, NPilot: 2,
		Scheme: waveform.QPSK,
	}
}

// hostileSNRAxes are SNR axes whose loop would never end or would build
// an unbounded family: each must yield no scenarios.
var hostileSNRAxes = []struct {
	name             string
	min, max, stepDB float64
}{
	{"max +inf", 8, math.Inf(1), 2},
	{"min -inf", math.Inf(-1), 26, 2},
	{"min nan", math.NaN(), 26, 2},
	{"max nan", 8, math.NaN(), 2},
	{"step nan", 8, 26, math.NaN()},
	{"step +inf", 8, 26, math.Inf(1)},
	{"step -inf", 8, 26, math.Inf(-1)},
	{"tiny step", 8, 26, 1e-12},
	{"one past the cap", 0, maxSNRPoints, 1},
}

func TestSNRSweepGenerator(t *testing.T) {
	for _, tc := range hostileSNRAxes {
		if n := len(SNRSweep(testBase(), tc.min, tc.max, tc.stepDB)); n != 0 {
			t.Errorf("%s: SNRSweep(%g, %g, %g) = %d scenarios, want 0", tc.name, tc.min, tc.max, tc.stepDB, n)
		}
	}
	if n := len(SNRSweep(testBase(), 0, maxSNRPoints-1, 1)); n != maxSNRPoints {
		t.Errorf("SNRSweep at the cap = %d scenarios, want %d", n, maxSNRPoints)
	}
	scens := SNRSweep(testBase(), 8, 26, 2)
	if len(scens) != 10 {
		t.Fatalf("SNRSweep(8, 26, 2) = %d scenarios, want 10", len(scens))
	}
	if scens[0].Chain.SNRdB != 8 || scens[9].Chain.SNRdB != 26 {
		t.Errorf("sweep endpoints %g..%g, want 8..26", scens[0].Chain.SNRdB, scens[9].Chain.SNRdB)
	}
	seen := make(map[string]bool)
	for _, s := range scens {
		if s.Chain == nil || s.UseCase != nil {
			t.Fatalf("scenario %q is not a pure chain scenario", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestCampaignDeterministicAcrossRunsAndWorkers(t *testing.T) {
	scens := SNRSweep(testBase(), 8, 22, 2)
	if len(scens) < 8 {
		t.Fatalf("sweep too small: %d", len(scens))
	}
	encode := func(workers int) string {
		var buf bytes.Buffer
		r := &Runner{Workers: workers}
		if err := r.WriteJSONL(&buf, scens); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := encode(1)
	if n := strings.Count(serial, "\n"); n != len(scens) {
		t.Fatalf("%d JSON lines for %d scenarios", n, len(scens))
	}
	if again := encode(1); again != serial {
		t.Error("same campaign twice (1 worker) produced different bytes")
	}
	for _, workers := range []int{2, 4, 8} {
		if got := encode(workers); got != serial {
			t.Errorf("campaign with %d workers diverges from serial run", workers)
		}
	}
}

func TestCampaignResultsCarryMetrics(t *testing.T) {
	r := &Runner{Workers: 2}
	results := r.Run(SNRSweep(testBase(), 20, 26, 2))
	for _, res := range results {
		if res.Error != "" {
			t.Fatalf("%s: %s", res.Scenario, res.Error)
		}
		if res.Kind != "chain" || res.Cluster != "MemPool" || res.Cores != 256 {
			t.Errorf("%s: kind/cluster/cores = %s/%s/%d", res.Scenario, res.Kind, res.Cluster, res.Cores)
		}
		if res.TotalCycles <= 0 {
			t.Errorf("%s: no cycles", res.Scenario)
		}
		if res.Seed == 0 {
			t.Errorf("%s: seed not assigned", res.Scenario)
		}
		var sum float64
		for _, share := range res.StageShares {
			sum += share
		}
		if sum <= 0.5 || sum > 1.0+1e-9 {
			t.Errorf("%s: stage shares sum to %g", res.Scenario, sum)
		}
	}
	// Higher SNR must not worsen BER in this tiny but clean setup.
	if first, last := results[0], results[len(results)-1]; last.BER > first.BER {
		t.Errorf("BER rose with SNR: %g at %g dB vs %g at %g dB",
			first.BER, first.SNRdB, last.BER, last.SNRdB)
	}
}

func TestSchemeGridAndErrors(t *testing.T) {
	// NL=3 does not divide NSC=64: that grid point must fail gracefully.
	scens := SchemeGrid(testBase(), []waveform.Scheme{waveform.QPSK, waveform.QAM16}, []int{2, 3})
	if len(scens) != 4 {
		t.Fatalf("grid size %d, want 4", len(scens))
	}
	results := (&Runner{Workers: 2}).Run(scens)
	var failed, ok int
	for _, res := range results {
		if res.Error != "" {
			failed++
		} else {
			ok++
			if res.TotalCycles <= 0 {
				t.Errorf("%s: no cycles", res.Scenario)
			}
		}
	}
	if failed != 2 || ok != 2 {
		t.Errorf("failed/ok = %d/%d, want 2/2", failed, ok)
	}
}

func TestClusterScalingScenarios(t *testing.T) {
	scens := ClusterScaling(testBase(), []int{1, 2, 4})
	results := (&Runner{}).Run(scens)
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	prev := int64(0)
	for i, res := range results {
		if res.Error != "" {
			t.Fatalf("%s: %s", res.Scenario, res.Error)
		}
		wantCores := []int{64, 128, 256}[i]
		if res.Cores != wantCores {
			t.Errorf("%s: %d cores, want %d", res.Scenario, res.Cores, wantCores)
		}
		if prev != 0 && res.TotalCycles > prev*2 {
			t.Errorf("cycles grew sharply with cluster size: %d -> %d", prev, res.TotalCycles)
		}
		prev = res.TotalCycles
	}
}

func TestUseCaseScenario(t *testing.T) {
	base := pusch.UseCaseConfig{
		Cluster: arch.MemPool(),
		Symbols: 4, DataSymbols: 2,
		NFFT: 256, NR: 8, NB: 4, NL: 4,
		CholPerRound: 4,
	}
	results := (&Runner{Workers: 2}).Run(CholScheduleSweep(base, []int{4, 16}))
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	for _, res := range results {
		if res.Error != "" {
			t.Fatalf("%s: %s", res.Scenario, res.Error)
		}
		if res.Kind != "usecase" || res.TotalCycles <= 0 {
			t.Errorf("%s: kind %s, cycles %d", res.Scenario, res.Kind, res.TotalCycles)
		}
		if len(res.StageShares) != 3 {
			t.Errorf("%s: stage shares %v, want fft/mmm/chol", res.Scenario, res.StageShares)
		}
	}
}

func TestInvalidClusterSurfacesAsError(t *testing.T) {
	// Groups: 0 fails arch.Config.Validate; the campaign must report it
	// per scenario, not panic the worker (pool.Get would panic).
	scens := ClusterScaling(testBase(), []int{0, 4})
	results := (&Runner{Workers: 2}).Run(scens)
	if results[0].Error == "" {
		t.Error("invalid cluster scenario did not surface an error")
	}
	if results[1].Error != "" || results[1].TotalCycles <= 0 {
		t.Errorf("valid sibling scenario damaged: %+v", results[1])
	}

	uc := pusch.UseCaseConfig{Cluster: &arch.Config{Name: "broken"}, Symbols: 4,
		DataSymbols: 2, NFFT: 256, NR: 8, NB: 4, NL: 4, CholPerRound: 4}
	results = (&Runner{}).Run([]Scenario{{Name: "bad-usecase", UseCase: &uc}})
	if results[0].Error == "" {
		t.Error("invalid use-case cluster did not surface an error")
	}
}

func TestScenarioValidation(t *testing.T) {
	results := (&Runner{}).Run([]Scenario{{Name: "empty"}})
	if results[0].Error == "" {
		t.Error("empty scenario did not error")
	}
	cfg := testBase()
	uc := pusch.DefaultUseCase()
	results = (&Runner{}).Run([]Scenario{{Name: "both", Chain: &cfg, UseCase: &uc}})
	if results[0].Error == "" {
		t.Error("double-variant scenario did not error")
	}
}

func TestCampaignResultsCarryThroughput(t *testing.T) {
	chainRes := (&Runner{}).Run(SNRSweep(testBase(), 20, 20, 2))
	if len(chainRes) != 1 || chainRes[0].Error != "" {
		t.Fatalf("chain scenario failed: %+v", chainRes)
	}
	// 1 data symbol x 64 subcarriers x 2 UEs x 2 bits (QPSK).
	if want := int64(1 * 64 * 2 * 2); chainRes[0].PayloadBits != want {
		t.Errorf("chain payload = %d bits, want %d", chainRes[0].PayloadBits, want)
	}
	if chainRes[0].ThroughputGbps <= 0 {
		t.Error("chain throughput not computed")
	}

	uc := pusch.UseCaseConfig{
		Cluster: arch.MemPool(),
		Symbols: 4, DataSymbols: 2,
		NFFT: 256, NR: 8, NB: 4, NL: 4,
		CholPerRound: 4,
	}
	ucRes := (&Runner{}).Run(CholScheduleSweep(uc, []int{4}))
	if len(ucRes) != 1 || ucRes[0].Error != "" {
		t.Fatalf("use-case scenario failed: %+v", ucRes)
	}
	if ucRes[0].PayloadBits <= 0 || ucRes[0].ThroughputGbps <= 0 {
		t.Errorf("use-case throughput missing: %+v", ucRes[0])
	}
}

// TestProfileSweepScenarios: one chain scenario per fading profile, the
// profile applied to the scenario's channel spec and surfaced on the
// result line.
func TestProfileSweepScenarios(t *testing.T) {
	base := testBase()
	base.SNRdB = 24
	base.Channel.DopplerHz = 30
	scens := ProfileSweep(base, []channel.Profile{channel.IID, channel.TDLA, channel.TDLB, channel.TDLC})
	if len(scens) != 4 {
		t.Fatalf("%d scenarios, want 4", len(scens))
	}
	if scens[1].Name != "profile-tdl-a" || scens[1].Chain.Channel.Profile != channel.TDLA {
		t.Errorf("scenario 1 = %q over %q", scens[1].Name, scens[1].Chain.Channel.Profile)
	}
	results := (&Runner{Workers: 2}).Run(scens)
	for i, res := range results {
		if res.Error != "" {
			t.Fatalf("%s: %s", res.Scenario, res.Error)
		}
		want := string(scens[i].Chain.Channel.Profile)
		if res.Channel != want || res.DopplerHz != 30 {
			t.Errorf("%s: channel coordinates %q/%g, want %q/30", res.Scenario, res.Channel, res.DopplerHz, want)
		}
	}
}

// TestLinkCurveMonotone is the CI link-quality gate: a quick link-curve
// campaign (one TDL profile, three well-separated SNR points) must
// produce a BER curve that is monotone non-increasing in SNR. A fading
// subsystem bug that breaks the SNR axis (mis-scaled tap powers, noise
// applied to the wrong amplitude) shows up here immediately.
func TestLinkCurveMonotone(t *testing.T) {
	base := testBase()
	base.Channel.DopplerHz = 30
	// Pin the fading realization: every SNR point then sees the same
	// channel (evaluated at the same instant), so the curve compares
	// noise levels only and monotonicity is structural, not a property
	// of three independent channel draws.
	base.Channel.Seed = 5
	base.Channel.TimeMs = 1
	scens := LinkCurves(base, []channel.Profile{channel.TDLA}, 4, 24, 10)
	if len(scens) != 3 {
		t.Fatalf("%d scenarios, want 3 SNR points", len(scens))
	}
	results := (&Runner{Workers: 2, Seed: 3}).Run(scens)
	prev := 1.0
	for _, res := range results {
		if res.Error != "" {
			t.Fatalf("%s: %s", res.Scenario, res.Error)
		}
		if res.BER > prev {
			t.Errorf("BER %.4f at %g dB above %.4f at lower SNR", res.BER, res.SNRdB, prev)
		}
		prev = res.BER
		t.Logf("%s: BER %.4f", res.Scenario, res.BER)
	}
	if results[0].BER == 0 {
		t.Errorf("BER at %g dB is already zero; the curve's low end carries no signal", results[0].SNRdB)
	}
	if last := results[len(results)-1].BER; last > 0.01 {
		t.Errorf("BER %.4f at the high-SNR end, want near zero", last)
	}
}

// TestLinkCurvesCrossProduct checks the generator's shape: profiles are
// contiguous, every (profile, SNR) pair appears once.
func TestLinkCurvesCrossProduct(t *testing.T) {
	profiles := []channel.Profile{channel.TDLB, channel.TDLC}
	for _, tc := range hostileSNRAxes {
		if n := len(LinkCurves(testBase(), profiles, tc.min, tc.max, tc.stepDB)); n != 0 {
			t.Errorf("%s: LinkCurves(%g, %g, %g) = %d scenarios, want 0", tc.name, tc.min, tc.max, tc.stepDB, n)
		}
	}
	scens := LinkCurves(testBase(), profiles, 10, 20, 5)
	if len(scens) != 6 {
		t.Fatalf("%d scenarios, want 2 profiles x 3 points", len(scens))
	}
	if scens[0].Chain.Channel.Profile != channel.TDLB || scens[3].Chain.Channel.Profile != channel.TDLC {
		t.Error("profiles not contiguous in scenario order")
	}
	if scens[0].Chain.SNRdB != 10 || scens[2].Chain.SNRdB != 20 {
		t.Errorf("SNR endpoints %g..%g, want 10..20", scens[0].Chain.SNRdB, scens[2].Chain.SNRdB)
	}
}
