package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/timecache"
	"repro/internal/waveform"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/campaign_golden.txt from the current campaign code")

const goldenPath = "testdata/campaign_golden.txt"

// goldenScenarios is the campaign golden's mixed scenario list, one of
// every kind of Result the runner emits. Chain results come from the
// engine (SNR, layout, fading-profile and cluster-scaling points) or
// from the calibrated model (two analytic points), or they fail (NL 3
// does not divide 64 subcarriers, a zero-group cluster, an empty
// scenario). One small use case carries the fft/mmm/chol split. No two
// chain scenarios share a cache coordinate, so a cold cache misses on
// every one of them.
func goldenScenarios() []Scenario {
	var out []Scenario
	out = append(out, SNRSweep(testBase(), 12, 20, 4)...)

	// The 64-SC MemPool layout-gate slot: the sequential reference and
	// every pipelined split of the default ladder.
	gate := pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 14, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
	out = append(out, LayoutSweep(gate, nil)...)

	fading := testBase()
	fading.SNRdB = 24
	fading.Channel.DopplerHz = 30
	out = append(out, ProfileSweep(fading, channel.Profiles)...)

	out = append(out, SchemeGrid(testBase(), []waveform.Scheme{waveform.QPSK, waveform.QAM16}, []int{2, 3})...)
	out = append(out, ClusterScaling(testBase(), []int{0, 1})...)
	out = append(out, CholScheduleSweep(pusch.UseCaseConfig{
		Cluster: arch.MemPool(),
		Symbols: 4, DataSymbols: 2,
		NFFT: 256, NR: 8, NB: 4, NL: 4,
	}, []int{4})...)
	out = append(out, Scenario{Name: "empty"})
	out = append(out, SNRSweep(analyticBase(), 10, 12, 2)...)
	return out
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestCampaignGolden pins the campaign's output bytes: the SHA-256 of
// the JSONL stream and of the Chrome trace profile of the golden
// scenario list, run at 1 and 4 workers, uncached, through a cold cache
// and through the same cache warm. Cache hits contribute no spans, so
// the warm profiles differ from the cold ones; every stream is the
// same. Any change to these bytes is a change to campaign results,
// never a refactoring detail. Regenerate deliberately with
// `go test ./internal/campaign -run TestCampaignGolden -update-golden`.
func TestCampaignGolden(t *testing.T) {
	scens := goldenScenarios()
	model := analyticModel(t)
	run := func(workers int, cache *timecache.Cache) (stream, profile []byte) {
		prof := obs.NewProfile()
		r := &Runner{Workers: workers, Seed: 7, Cache: cache, Model: model, Profile: prof}
		var out, chrome bytes.Buffer
		if err := r.WriteJSONL(&out, scens); err != nil {
			t.Fatal(err)
		}
		if err := prof.WriteChrome(&chrome); err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), chrome.Bytes()
	}

	var got strings.Builder
	var first []byte
	for _, workers := range []int{1, 4} {
		cache := timecache.New(0)
		for _, mode := range []string{"uncached", "cold", "warm"} {
			c := cache
			if mode == "uncached" {
				c = nil
			}
			stream, profile := run(workers, c)
			if first == nil {
				first = stream
			}
			fmt.Fprintf(&got, "w%d-%s.jsonl %s\n", workers, mode, digest(stream))
			fmt.Fprintf(&got, "w%d-%s.profile %s\n", workers, mode, digest(profile))
		}
		if st := cache.Stats(); st.Misses == 0 || st.Hits != st.Misses {
			t.Fatalf("workers=%d: the warm pass must hit every coordinate the cold pass added: %+v", workers, st)
		}
	}
	checkGoldenCoverage(t, first)

	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s: %v", goldenPath, err)
	}
	if string(want) != got.String() {
		t.Errorf("campaign digests differ from %s:\n--- got\n%s--- pinned\n%s", goldenPath, got.String(), want)
	}
}

// checkGoldenCoverage requires the golden stream to exercise what the
// golden claims to pin.
func checkGoldenCoverage(t *testing.T, stream []byte) {
	t.Helper()
	var engine, pipelined, fading, analytic, usecase, failed, noCluster int
	dec := json.NewDecoder(bytes.NewReader(stream))
	for dec.More() {
		var res Result
		if err := dec.Decode(&res); err != nil {
			t.Fatal(err)
		}
		switch {
		case res.Error != "":
			failed++
			if res.Cluster == "" {
				noCluster++
			}
		case res.Kind == "usecase":
			usecase++
		case res.Timing == string(pusch.TimingAnalytic):
			analytic++
		default:
			engine++
			if res.Layout != "" {
				pipelined++
			}
			if res.Channel != "" {
				fading++
			}
		}
	}
	if engine < 10 || pipelined == 0 || fading == 0 || analytic != 2 || usecase != 1 || failed != 4 || noCluster != 2 {
		t.Fatalf("golden coverage: %d engine (%d pipelined, %d fading), %d analytic, %d use case, %d failed (%d without a cluster)",
			engine, pipelined, fading, analytic, usecase, failed, noCluster)
	}
}
