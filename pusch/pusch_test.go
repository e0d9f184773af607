package pusch_test

import (
	"fmt"
	"testing"

	"repro/pusch"
	"repro/sim"
	"repro/waveform"
)

func TestPublicComplexity(t *testing.T) {
	d := pusch.UseCaseDims(4)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.TotalMACs() <= 0 {
		t.Error("no MACs")
	}
	if len(pusch.Stages) != 5 {
		t.Errorf("stage count %d", len(pusch.Stages))
	}
	if tab := pusch.Fig3Table([]int{1, 4}); len(tab) == 0 {
		t.Error("empty Fig. 3 table")
	}
}

func TestPublicChainRuns(t *testing.T) {
	res, err := pusch.RunChain(pusch.ChainConfig{
		Cluster: sim.MemPool(),
		NSC:     64, NR: 8, NB: 4, NL: 2,
		NSymb: 3, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  30,
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BER > 0.01 {
		t.Errorf("BER %g at 30 dB", res.BER)
	}
}

// ExampleUseCaseDims prints the Fig. 3 dominant stages for the paper's
// 4-UE reference configuration.
func ExampleUseCaseDims() {
	d := pusch.UseCaseDims(4)
	shares := d.Shares()
	fmt.Printf("BF share larger than OFDM share: %v\n",
		shares[pusch.StageBF] > shares[pusch.StageOFDM])
	fmt.Printf("MIMO share under 5%%: %v\n", shares[pusch.StageMIMO] < 0.05)
	// Output:
	// BF share larger than OFDM share: true
	// MIMO share under 5%: true
}

func TestPublicUseCase(t *testing.T) {
	cfg := pusch.DefaultUseCase()
	cfg.Cluster = sim.MemPool()
	cfg.NFFT = 1024
	cfg.NR = 16
	cfg.NB = 8
	res, err := pusch.RunUseCase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles <= 0 || res.TimeMs <= 0 {
		t.Error("empty use-case result")
	}
	sh := res.Shares()
	if sh["fft"] <= 0 || sh["mmm"] <= 0 || sh["chol"] <= 0 {
		t.Errorf("shares %v", sh)
	}
}

// TestChannelFacade exercises the fading-subsystem re-exports: profile
// parsing, Doppler conversion, link-curve generation and an end-to-end
// chain run over a TDL profile through the public surface only.
func TestChannelFacade(t *testing.T) {
	p, err := pusch.ParseChannelProfile("tdl-b")
	if err != nil || p != pusch.ChannelTDLB {
		t.Fatalf("ParseChannelProfile(tdl-b) = %q, %v", p, err)
	}
	if fd := pusch.DopplerFromSpeed(30, 3.5); fd < 90 || fd > 105 {
		t.Errorf("DopplerFromSpeed(30, 3.5) = %g Hz", fd)
	}
	base := pusch.ChainConfig{
		NSC: 64, NR: 4, NB: 4, NL: 2,
		NSymb: 3, NPilot: 2,
		Scheme:  waveform.QPSK,
		Channel: pusch.ChannelSpec{DopplerHz: 30},
	}
	scens := pusch.LinkCurves(base, []pusch.ChannelProfile{pusch.ChannelTDLA}, 20, 24, 4)
	if len(scens) != 2 {
		t.Fatalf("%d scenarios, want 2", len(scens))
	}
	res := (&pusch.Runner{Workers: 1}).Run(scens)
	for _, r := range res {
		if r.Error != "" {
			t.Fatalf("%s: %s", r.Scenario, r.Error)
		}
		if r.Channel != "tdl-a" || r.DopplerHz != 30 {
			t.Errorf("%s: channel %q/%g", r.Scenario, r.Channel, r.DopplerHz)
		}
	}
	if len(pusch.ProfileSweep(base, pusch.ChannelProfiles)) != 4 {
		t.Error("ProfileSweep over all named profiles should yield 4 scenarios")
	}
}
