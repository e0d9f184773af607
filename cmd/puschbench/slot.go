package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/waveform"
)

// slotBench is slot-mempool64: the 64-subcarrier MemPool gate slot
// (16 antennas, 8 beams, 14 symbols, 20 dB SNR) rotating over three
// chain variants on one reused machine, one slot per op. Payload seed
// is seed + op index. The serving layers are bypassed entirely.
type slotBench struct {
	m        *engine.Machine
	variants []pusch.ChainConfig
	cycles   []int64 // each variant's slot cycles, from its set-up slot
	bits     []int64
	prefix   int      // slots the traced phase re-runs
	records  [][]byte // the measured phase's records of the prefix slots
}

// slotBERLimit fails a gate slot whose detection is broken: it decodes
// at a BER of a few 1e-3.
const slotBERLimit = 0.05

func (b *slotBench) setup(x *run) error {
	b.m = x.newMachine(arch.MemPool())
	gate := pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 14, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
	}
	pipe := gate
	pipe.Layout = pusch.StockPipelined(gate.Cluster)
	qam := gate
	qam.NL, qam.Scheme = 2, waveform.QAM16
	b.variants = []pusch.ChainConfig{gate, pipe, qam}
	b.prefix = len(b.variants) * x.scaled(20, 1)
	for i := range b.variants {
		b.m.Reset()
		rec, err := pusch.RunChainRecordOn(b.m, b.config(i, x.seed))
		if err != nil {
			return err
		}
		b.cycles = append(b.cycles, rec.TotalCycles)
		b.bits = append(b.bits, rec.PayloadBits)
	}
	return nil
}

// config is op i's slot.
func (b *slotBench) config(i int, seed uint64) pusch.ChainConfig {
	cfg := b.variants[i%len(b.variants)]
	cfg.Seed = seed + uint64(i)
	return cfg
}

func (b *slotBench) measure(x *run) (opStats, sim) {
	var st opStats
	var ber float64
	for i := 0; !x.timeUp(i, b.prefix); i++ {
		cfg := b.config(i, x.seed)
		t := time.Now()
		b.m.Reset()
		rec, err := pusch.RunChainRecordOn(b.m, cfg)
		st.one(time.Since(t))
		x.r.Attempted++
		if err == nil {
			err = b.check(i, rec)
		}
		x.r.fail(1, opErr(i, err))
		if i < b.prefix {
			js, _ := json.Marshal(rec) // a SlotRecord always encodes
			b.records = append(b.records, js)
			ber += rec.BER
		}
	}
	var cycles, bits int64
	for i := range b.variants {
		cycles += b.cycles[i]
		bits += b.bits[i]
	}
	return st, sim{
		cyclesPerOp: float64(cycles) / float64(len(b.variants)),
		gbps:        report.Gbps(bits, cycles),
		ber:         ber / float64(b.prefix),
	}
}

// check holds a slot to the simulator's guarantees: timing never depends
// on payload, and detection works.
func (b *slotBench) check(i int, rec report.SlotRecord) error {
	v := i % len(b.variants)
	if rec.TotalCycles != b.cycles[v] {
		return fmt.Errorf("variant %d took %d cycles, its set-up slot %d", v, rec.TotalCycles, b.cycles[v])
	}
	if rec.BER > slotBERLimit {
		return fmt.Errorf("BER %.4f above %.2f", rec.BER, slotBERLimit)
	}
	return nil
}

func (b *slotBench) traced(x *run, l *lane) (int, engineTally) {
	tally := engineTally{runSpans: []string{"pusch.run"}}
	for i := range b.prefix {
		l.begin("op", i)
		l.do("engine.reset", i, func() error {
			b.m.Reset()
			return nil
		})
		rec, err := tracedChain(l, i, b.m, b.config(i, x.seed), &tally)
		l.end()
		x.r.Attempted++
		if err == nil {
			if js, _ := json.Marshal(rec); !bytes.Equal(js, b.records[i]) {
				err = fmt.Errorf("the traced stages assemble a different record than RunChainRecordOn")
			}
		}
		x.r.fail(1, opErr(i, err))
	}
	return b.prefix, tally
}

// opErr labels an op's error with its index.
func opErr(op int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("op %d: %w", op, err)
}
