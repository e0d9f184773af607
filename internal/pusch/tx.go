package pusch

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/channel"
	"repro/internal/waveform"
)

// SlotTX is the host-side transmit stage of one functional slot: the
// per-UE resource grids (pilot and data symbols), the transmitted data
// bits kept for BER scoring, and the time-domain antenna samples after
// the multipath channel and AWGN. It is the first of the three
// separately callable chain stages (transmit, Pipeline, link metrics)
// that RunChainOn composes and that campaign sweeps reuse directly.
type SlotTX struct {
	// Pilots is the full-band pilot sequence shared by TX and the
	// receive pipeline's channel estimator.
	Pilots []complex128
	// Grids holds the frequency-domain resource grid per UE and symbol.
	Grids [][][]complex128 // [ue][symbol][subcarrier]
	// Bits are the transmitted data bits per UE and data symbol.
	Bits [][][]byte // [ue][dataSymbol][bit]
	// RxTime are the received time-domain samples per symbol and antenna.
	RxTime [][][]complex128 // [symbol][antenna][sample]
}

// chainPilots derives the slot's pilot sequence from the configuration.
// TX and the receive pipeline both call it so the two sides agree
// without sharing state.
func chainPilots(cfg *ChainConfig) []complex128 {
	return waveform.QPSKPilots(pilotInit(cfg.Seed), cfg.NSC, cfg.PilotAmp)
}

// pilotInit derives the Gold-sequence initialization from the chain
// seed. The seed is avalanched (channel.Mix64) before the low-bit OR
// that keeps cInit nonzero: taking uint32(seed)|1 directly would hand
// seeds 2k and 2k+1 the same pilot sequence (and alias all seeds
// modulo 2^32).
func pilotInit(seed uint64) uint32 {
	return uint32(channel.Mix64(seed+0x9e3779b97f4a7c15)) | 1
}

// NewSlotTX runs the transmit side of one slot on the host: it draws the
// data bits, modulates the per-UE grids (pilot symbols are comb-mapped
// across UEs), passes every OFDM symbol through a freshly drawn multipath
// MIMO channel and adds noise at the configured SNR. cfg must already be
// defaulted and validated.
func NewSlotTX(cfg *ChainConfig, rng *rand.Rand) (*SlotTX, error) {
	return newSlotTX(cfg, rng, nil)
}

// newSlotTX is NewSlotTX, also sending each symbol's received samples
// on rows, when it is not nil, as soon as they are complete. rows must
// have room for cfg.NSymb values.
func newSlotTX(cfg *ChainConfig, rng *rand.Rand, rows chan<- [][]complex128) (*SlotTX, error) {
	tx := &SlotTX{Pilots: chainPilots(cfg)}
	bps := cfg.Scheme.BitsPerSymbol()
	nData := cfg.NSymb - cfg.NPilot
	tx.Bits = make([][][]byte, cfg.NL)
	tx.Grids = make([][][]complex128, cfg.NL)
	for l := 0; l < cfg.NL; l++ {
		tx.Bits[l] = make([][]byte, nData)
		tx.Grids[l] = make([][]complex128, cfg.NSymb)
		for s := 0; s < cfg.NSymb; s++ {
			g := make([]complex128, cfg.NSC)
			if s < cfg.NPilot {
				for sc := l; sc < cfg.NSC; sc += cfg.NL {
					g[sc] = tx.Pilots[sc]
				}
			} else {
				bits := waveform.RandBits(rng, cfg.NSC*bps)
				tx.Bits[l][s-cfg.NPilot] = bits
				syms, err := waveform.Modulate(cfg.Scheme, bits, cfg.DataAmp)
				if err != nil {
					return nil, err
				}
				copy(g, syms)
			}
			tx.Grids[l][s] = g
		}
	}

	ch, err := slotChannel(cfg, rng)
	if err != nil {
		return nil, err
	}
	noiseStd := cfg.DataAmp * math.Pow(10, -cfg.SNRdB/20) / math.Sqrt2
	tx.RxTime = make([][][]complex128, cfg.NSymb)
	for s := 0; s < cfg.NSymb; s++ {
		txSamples := make([][]complex128, cfg.NL)
		for l := 0; l < cfg.NL; l++ {
			txSamples[l] = waveform.OFDMModulate(tx.Grids[l][s])
		}
		rx, err := ch.Apply(rng, txSamples, noiseStd)
		if err != nil {
			return nil, err
		}
		tx.RxTime[s] = rx
		if rows != nil {
			rows <- rx
		}
	}
	return tx, nil
}

// slotChannel realizes the slot's MIMO channel from the configured
// fading spec. A legacy spec keeps the original code path — a fresh iid
// draw from the chain rng, bit-identical to the pre-subsystem
// behaviour. An active spec evolves one channel.LinkState per UE
// instead: tap gains are a pure function of (fading seed, slot time),
// so consecutive slots of the same UE see a correlated channel and no
// chain-rng draws are consumed (bits and noise keep their positions in
// the stream regardless of the profile).
func slotChannel(cfg *ChainConfig, rng *rand.Rand) (*waveform.Channel, error) {
	if cfg.Channel.Legacy() {
		return waveform.NewChannel(rng, cfg.NR, cfg.NL, cfg.Taps), nil
	}
	spec := cfg.Channel
	spec.SetDefaults()
	// Cap tap lags well inside the symbol so the circular convolution
	// still models a cyclic prefix longer than the channel.
	taps, err := spec.Discretize(channel.SampleNs(cfg.NSC), cfg.Taps, cfg.NSC/4)
	if err != nil {
		return nil, fmt.Errorf("pusch: %w", err)
	}
	base := spec.Seed
	if base == 0 {
		base = cfg.Seed
	}
	ch := &waveform.Channel{NRx: cfg.NR, NTx: cfg.NL}
	ch.Taps = make([][][]complex128, cfg.NR)
	for r := range ch.Taps {
		ch.Taps[r] = make([][]complex128, cfg.NL)
	}
	// Per-pair unit energy divided by the UE count, matching the legacy
	// normalization (receive levels stay bounded as NL grows).
	scale := complex(1/math.Sqrt(float64(cfg.NL)), 0)
	for l := 0; l < cfg.NL; l++ {
		ls := channel.NewLinkState(spec, channel.LayerSeed(base, l), cfg.NR, taps)
		h := ls.TapsAt(spec.TimeMs)
		for r := 0; r < cfg.NR; r++ {
			g := make([]complex128, len(h[r]))
			for k := range g {
				g[k] = h[r][k] * scale
			}
			ch.Taps[r][l] = g
		}
	}
	return ch, nil
}
