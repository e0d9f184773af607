package pusch_test

import (
	"fmt"
	"log"

	"repro/pusch"
	"repro/sim"
	"repro/waveform"
)

// ExampleRunChain runs a small end-to-end functional slot — UE
// transmitter, multipath channel, and the full receive chain on a
// simulated MemPool cluster — and reads link quality off the result.
// The output is deterministic: the simulator is bit-reproducible and
// the payload is derived from the fixed seed.
func ExampleRunChain() {
	cfg := pusch.ChainConfig{
		Cluster: sim.MemPool(),
		NSC:     64, NR: 4, NB: 4, NL: 1,
		NSymb: 3, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
	res, err := pusch.RunChain(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BER: %v\n", res.BER)

	// The same run as a typed telemetry record (what campaigns and the
	// slot-traffic scheduler emit): one data symbol of 64 subcarriers at
	// 2 bits each for a single UE.
	rec := res.Record(cfg)
	fmt.Printf("%s slot on %s: %d payload bits\n", rec.Kind, rec.Cluster, rec.PayloadBits)
	// Output:
	// BER: 0
	// chain slot on MemPool: 128 payload bits
}
