// pusch_slot runs the full PUSCH receive chain end to end on the
// simulated cluster: four UEs transmit a slot (pilots + QPSK data)
// through a multipath channel; the receiver runs OFDM demodulation,
// beamforming, channel and noise estimation and MMSE MIMO detection on
// simulated MemPool cores, and the demodulated bits are compared with
// what was sent.
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/pusch"
	"repro/internal/waveform"
)

func main() {
	log.SetFlags(0)
	cfg := pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     256, // subcarriers (= FFT size)
		NR:      16,  // receive antennas
		NB:      8,   // beams after beamforming
		NL:      4,   // UEs sharing the resources
		NSymb:   6,   // OFDM symbols (2 pilots + 4 data)
		NPilot:  2,
		Scheme:  waveform.QPSK,
		SNRdB:   26,
		Seed:    2026,
	}
	res, err := pusch.RunChain(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("PUSCH slot on %s: %d subcarriers, %d antennas -> %d beams, %d UEs, %s\n",
		cfg.Cluster.Name, cfg.NSC, cfg.NR, cfg.NB, cfg.NL, cfg.Scheme)
	fmt.Printf("  link:   BER %.2e   EVM %.1f dB   estimated noise var %.2e\n",
		res.BER, res.EVMdB, res.SigmaEst)
	fmt.Printf("  timing: %d cycles (%.3f ms at 1 GHz)\n", res.TotalCycles, res.TimeMs)
	fmt.Println("  per-stage cycle budget:")
	for _, st := range pusch.Stages {
		rep := res.Stages[st]
		fmt.Printf("    %-46s %8d cycles  IPC %.2f\n", st, rep.Wall, rep.IPC())
	}
	if res.BER > 0 {
		fmt.Println("note: nonzero BER; raise SNRdB or inspect the stage reports")
	}
}
