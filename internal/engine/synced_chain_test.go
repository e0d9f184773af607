package engine_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/waveform"
)

// TestChainSlotReplays counts the stages a 64-SC MemPool chain slot
// replays. In a sequential slot, symbols 0-2 load new kernels into the
// tile caches (the cold start, the pilots' estimation and noise
// combine, the first detection) and symbol 3 records the steady state;
// from symbol 4 on, the FFT, beamforming and MIMO stages each repeat
// their entry state: 30 replays in a 14-symbol slot and 6 in a
// 6-symbol one, again after a Reset. Pipelined beats hold NotBefore
// handshakes and replay nothing. A change that turns replay off fails
// here.
func TestChainSlotReplays(t *testing.T) {
	base := pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   1,
	}
	rows := []struct {
		name      string
		symbols   int
		pipelined bool
		want      int
	}{
		{"sequential 14-symbol", 14, false, 30},
		{"sequential 6-symbol", 6, false, 6},
		{"pipelined 14-symbol", 14, true, 0},
	}
	for _, row := range rows {
		cfg := base
		cfg.NSymb = row.symbols
		if row.pipelined {
			cfg.Layout = pusch.StockPipelined(cfg.Cluster)
		}
		m := engine.NewMachine(cfg.Cluster)
		for run := range 2 {
			if run > 0 {
				m.Reset()
			}
			if _, err := pusch.RunChainOn(m, cfg); err != nil {
				t.Fatal(err)
			}
			if got := m.Replayed(); got != row.want {
				t.Errorf("%s, run %d: %d stages replayed, want %d", row.name, run, got, row.want)
			}
		}
	}
}
