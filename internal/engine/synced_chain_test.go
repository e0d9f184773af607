package engine_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	randv2 "math/rand/v2"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pusch"
	"repro/internal/waveform"
)

// TestChainSlotReplays counts the Runs a 64-SC MemPool chain slot
// replays. In a sequential slot, symbols 0-2 load new kernels into the
// tile caches (the cold start, the pilots' estimation and noise
// combine, the first detection) and symbol 3 records the steady state;
// from symbol 4 on, the FFT, beamforming and MIMO stages each repeat
// their entry state and replay from the stage memo: 30 replays in a
// 14-symbol slot and 6 in a 6-symbol one. Each slot is one memo unit,
// so after a Reset the slot replays whole after one memo lookup, with
// no stage-memo lookup: 43 and 19 stages. A pipelined slot records all
// of its Runs on the first run, and after a Reset all 17 (16 beats and
// the noise combine) replay. A change that turns replay off, drops the
// memo on Reset, or replays a repeated sequential slot stage by stage
// fails here.
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
		want      [2]int // replays on the first run and after Reset
	}{
		{"sequential 14-symbol", 14, false, [2]int{30, 43}},
		{"sequential 6-symbol", 6, false, [2]int{6, 19}},
		{"pipelined 14-symbol", 14, true, [2]int{0, 17}},
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
			lookups := m.MemoLookups()
			if _, err := pusch.RunChainOn(m, cfg); err != nil {
				t.Fatal(err)
			}
			if got := m.Replayed(); got != row.want[run] {
				t.Errorf("%s, run %d: %d Runs replayed, want %d", row.name, run, got, row.want[run])
			}
			if n := m.MemoLookups() - lookups; run > 0 && n != 1 {
				t.Errorf("%s, after Reset: %d memo lookups, want the slot's one", row.name, n)
			}
		}
		if m.MemoSlots() != 1 {
			t.Errorf("%s: %d slot entries, want 1", row.name, m.MemoSlots())
		}
	}
}

// slotBytes runs cfg on m, which must be fresh or Reset, and returns the
// slot's record as JSON. After the slot every core's attributed cycles
// must equal its clock, as on a fresh machine.
func slotBytes(t *testing.T, m *engine.Machine, cfg pusch.ChainConfig) []byte {
	t.Helper()
	rec, err := pusch.RunChainRecordOn(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := range m.Cfg.NumCores() {
		if busy, now := m.CoreStats(c).Busy(), m.CoreTime(c); busy != now {
			t.Fatalf("core %d attributes %d cycles at cycle %d", c, busy, now)
		}
	}
	js, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// freshBytes is slotBytes on a newly built machine.
func freshBytes(t *testing.T, cfg pusch.ChainConfig) []byte {
	t.Helper()
	return slotBytes(t, engine.NewMachine(cfg.Cluster), cfg)
}

// poolCoords returns the MemPool coordinates of the pooled-machine
// sequence: every pair of 64 or 256 subcarriers and 1, 2 or 4 UEs, two
// of them pipelined, with random symbol counts (3-14) and interpolation
// flags; then the first again with another symbol count, which plans
// the same kernels; and one small TeraPool coordinate.
func poolCoords(rng *rand.Rand) []pusch.ChainConfig {
	var coords []pusch.ChainConfig
	for i := range 6 {
		cfg := pusch.ChainConfig{
			Cluster: arch.MemPool(),
			NSC:     []int{64, 256}[i%2],
			NR:      16, NB: 8,
			NL:     []int{1, 2, 4}[i%3],
			NSymb:  3 + rng.Intn(12),
			NPilot: 2,
			Scheme: waveform.QPSK,
			SNRdB:  20,

			InterpolateChannel: rng.Intn(2) == 1,
		}
		if i == 2 || i == 3 {
			cfg.Layout = pusch.StockPipelined(cfg.Cluster)
		}
		coords = append(coords, cfg)
	}
	again := coords[0]
	again.NSymb = 3 + (again.NSymb-3+1+rng.Intn(11))%12
	tera := pusch.ChainConfig{
		Cluster: arch.TeraPool(),
		NSC:     64, NR: 16, NB: 8, NL: 2,
		NSymb: 5, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
	}
	return append(coords, again, tera)
}

// slotData draws a slot's data independently of its timing
// coordinate: the payload seed (distinct per slot), the SNR, and either
// the legacy iid channel or TDL-B fading at 30 Hz Doppler.
func slotData(rng *rand.Rand, cfg *pusch.ChainConfig, slot int) {
	cfg.Seed = uint64(100 + slot)
	cfg.SNRdB = float64(8 + rng.Intn(20))
	cfg.Channel = channel.Spec{}
	if rng.Intn(2) == 1 {
		cfg.Channel = channel.Spec{Profile: channel.TDLB, DopplerHz: 30, Seed: uint64(1 + rng.Intn(1000)), TimeMs: float64(slot)}
	}
}

// TestPooledMachineMatchesFresh runs a random sequence of chain
// coordinates (poolCoords, each at least twice, pipelined ones among
// them) through one machine pool, which Resets a machine on every Get,
// so a slot replays whatever earlier slots with the same plans
// recorded. Every slot draws its data (slotData) independently of its
// coordinate, so every replay follows a recording made with other data.
// Every record must byte-equal a fresh machine's.
func TestPooledMachineMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	coords := poolCoords(rng)
	var order []int
	for i := range coords {
		order = append(order, i, i)
	}
	for range 4 {
		order = append(order, rng.Intn(len(coords)))
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	pool := engine.NewMachines()
	for slot, i := range order {
		cfg := coords[i]
		slotData(rng, &cfg, slot)
		want := freshBytes(t, cfg)
		m := pool.Get(cfg.Cluster)
		got := slotBytes(t, m, cfg)
		pool.Put(m)
		if !bytes.Equal(got, want) {
			t.Fatalf("slot %d (coordinate %d, %s, %d SC, %d UEs, %d symbols, seed %d, %g dB, channel %q): pooled record\n%s\nfresh\n%s",
				slot, i, cfg.Layout, cfg.NSC, cfg.NL, cfg.NSymb, cfg.Seed, cfg.SNRdB, cfg.Channel.Profile, got, want)
		}
	}
}

// TestPooledMachineShiftedArena plans a slot after one extra TCDM
// allocation on a machine whose memo holds that coordinate's entries at
// the usual arena position. A sequential word moves the key's arena
// position, so the slot records entries of its own; a tile-local row
// leaves the tile floors unequal, with no position to key, so nothing
// replays. Either way the slot must replay exactly the stages a fresh
// machine with the same allocation replays, and match its record; the
// entries at the usual position must still replay the slot whole.
func TestPooledMachineShiftedArena(t *testing.T) {
	cfg := pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 6, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   3,
	}
	rows := []struct {
		name  string
		alloc func(m *engine.Machine) error
	}{
		{"sequential word", func(m *engine.Machine) error { _, err := m.Mem.AllocSeq(1); return err }},
		{"tile-local row", func(m *engine.Machine) error { _, err := m.Mem.AllocTileLocal(0, 1); return err }},
	}
	m := engine.NewMachine(cfg.Cluster)
	want := slotBytes(t, m, cfg)
	for _, row := range rows {
		prep := func(m *engine.Machine) {
			if err := row.alloc(m); err != nil {
				t.Fatal(err)
			}
		}
		twin := engine.NewMachine(cfg.Cluster)
		prep(twin)
		wantShifted := slotBytes(t, twin, cfg)
		m.Reset()
		prep(m)
		if got := slotBytes(t, m, cfg); !bytes.Equal(got, wantShifted) {
			t.Fatalf("%s: pooled record\n%s\nfresh\n%s", row.name, got, wantShifted)
		}
		if m.Replayed() != twin.Replayed() {
			t.Errorf("%s: %d stages replayed, a fresh machine with the same allocation replays %d", row.name, m.Replayed(), twin.Replayed())
		}
		m.Reset()
		if got := slotBytes(t, m, cfg); !bytes.Equal(got, want) {
			t.Fatalf("%s, then the usual position: record\n%s\nwant\n%s", row.name, got, want)
		}
		if m.Replayed() != 19 {
			t.Errorf("%s, then the usual position: %d of 19 stages replayed", row.name, m.Replayed())
		}
	}
}

// TestPooledMachineMemoCap cycles twice through more sequential
// coordinates than one machine's memo holds. The entry count stays at
// the cap, the least recently used entries are recorded over, and
// every record still matches a fresh machine's.
func TestPooledMachineMemoCap(t *testing.T) {
	var coords []pusch.ChainConfig
	for _, nr := range []int{8, 16} {
		for _, nl := range []int{1, 2, 4} {
			for _, interp := range []bool{false, true} {
				coords = append(coords, pusch.ChainConfig{
					Cluster: arch.MemPool(),
					NSC:     64, NR: nr, NB: nr / 2, NL: nl,
					NSymb: 4, NPilot: 2,
					Scheme: waveform.QPSK,
					SNRdB:  20,
					Seed:   uint64(nl),

					InterpolateChannel: interp,
				})
			}
		}
	}
	m := engine.NewMachine(arch.MemPool())
	fresh := make([][]byte, len(coords))
	for pass := range 2 {
		for i, cfg := range coords {
			if fresh[i] == nil {
				fresh[i] = freshBytes(t, cfg)
			}
			m.Reset()
			if got := slotBytes(t, m, cfg); !bytes.Equal(got, fresh[i]) {
				t.Fatalf("pass %d, coordinate %d: pooled record\n%s\nfresh\n%s", pass, i, got, fresh[i])
			}
		}
	}
	if n := m.MemoEntries(); n != engine.SyncMemoCap {
		t.Fatalf("%d memo entries after %d coordinates, want the cap %d", n, len(coords), engine.SyncMemoCap)
	}
}

// seqSlot is the sequential slot of the slot-memo tests: 64 SC on
// MemPool, 14 symbols.
func seqSlot() pusch.ChainConfig {
	return pusch.ChainConfig{
		Cluster: arch.MemPool(),
		NSC:     64, NR: 16, NB: 8, NL: 4,
		NSymb: 14, NPilot: 2,
		Scheme: waveform.QPSK,
		SNRdB:  20,
		Seed:   5,
	}
}

// pipeSlot is seqSlot under StockPipelined.
func pipeSlot() pusch.ChainConfig {
	cfg := seqSlot()
	cfg.Layout = pusch.StockPipelined(cfg.Cluster)
	return cfg
}

// TestChainSlotSimulates: a slot memoizes only an untraced, unchecked
// slot of a canonical split planned at a known allocator position.
// Each row breaks one condition on both of two runs, the second after
// a Reset; neither may record or replay anything, slot or stage, and
// both records must byte-equal a fresh machine's under the same
// condition.
func TestChainSlotSimulates(t *testing.T) {
	custom := pipeSlot()
	det := slices.Clone(custom.Layout.MIMO)
	slices.Reverse(det)
	custom.Layout.CHE, custom.Layout.NE, custom.Layout.MIMO = det, det, det
	if custom.Layout.String() != "pipe/custom" {
		t.Fatalf("the custom layout reads %q", custom.Layout)
	}
	rows := []struct {
		name   string
		cfg    pusch.ChainConfig
		prep   func(m *engine.Machine)
		traced bool
	}{
		{name: "traced", cfg: pipeSlot(), traced: true},
		{name: "sequential traced", cfg: seqSlot(), traced: true},
		{name: "DebugRaces", cfg: pipeSlot(), prep: func(m *engine.Machine) { m.DebugRaces = true }},
		{name: "pipe/custom", cfg: custom},
		{name: "no position", cfg: pipeSlot(), prep: func(m *engine.Machine) {
			if _, err := m.Mem.AllocTileLocal(0, 1); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			slot := func(m *engine.Machine) []byte {
				if row.prep != nil {
					row.prep(m)
				}
				if !row.traced {
					return slotBytes(t, m, row.cfg)
				}
				res, err := pusch.RunChainTracedOn(m, row.cfg, &obs.Trace{})
				if err != nil {
					t.Fatal(err)
				}
				js, err := json.Marshal(res.Record(row.cfg))
				if err != nil {
					t.Fatal(err)
				}
				return js
			}
			want := slot(engine.NewMachine(row.cfg.Cluster))
			m := engine.NewMachine(row.cfg.Cluster)
			for run := range 2 {
				if run > 0 {
					m.Reset()
				}
				if got := slot(m); !bytes.Equal(got, want) {
					t.Fatalf("run %d: record\n%s\nfresh\n%s", run, got, want)
				}
				if m.Replayed() != 0 || m.MemoEntries() != 0 {
					t.Fatalf("run %d: %d Runs replayed, %d memo entries; want none", run, m.Replayed(), m.MemoEntries())
				}
			}
		})
	}
}

// TestChainSlotAbandoned: a slot stopped part-way commits no slot
// entry, whether a RunSymbol error ends it before Drain or it is
// drained after a prefix of its symbols, and whether that prefix was
// simulated or replayed. Draining a replayed pipelined prefix early
// deviates from the recording, so Drain errors; a sequential prefix
// has nothing in flight, so its early Drain just drops the slot. The
// next whole slot after a Reset records, or replays the one committed
// recording after one memo lookup, and byte-equals a fresh machine's
// record either way. A sequential prefix commits its stages, so the
// first whole sequential slot replays every stage from the stage memo
// while it records.
func TestChainSlotAbandoned(t *testing.T) {
	for _, layout := range []struct {
		prefix string // of the subtest names
		cfg    pusch.ChainConfig
		stages int // Runs the first whole slot replays from the stage memo
		runs   int // the slot's Runs
	}{{"", pipeSlot(), 0, 17}, {"sequential ", seqSlot(), 43, 43}} {
		cfg, err := layout.cfg.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		pipelined := cfg.Layout.Pipelined()
		want := freshBytes(t, cfg)
		tx, err := pusch.NewSlotTX(&cfg, randv2.New(randv2.NewPCG(1, 2)))
		if err != nil {
			t.Fatal(err)
		}
		// stop runs the first five symbols, then ends the slot:
		// RunSymbol(5) on too few antenna rows errors before it runs
		// anything, or Drain flushes the prefix.
		stops := []struct {
			name    string
			stop    func(pl *pusch.Pipeline) error
			replays bool // the stop errors once a pipelined prefix replays
		}{
			{"RunSymbol error", func(pl *pusch.Pipeline) error {
				if pl.RunSymbol(5, tx.RxTime[5][1:]) == nil {
					t.Fatal("RunSymbol accepted too few antenna rows")
				}
				return nil
			}, false},
			{"early Drain", func(pl *pusch.Pipeline) error { return pl.Drain() }, true},
		}
		for _, row := range stops {
			t.Run(layout.prefix+row.name, func(t *testing.T) {
				m := engine.NewMachine(cfg.Cluster)
				abandon := func(replaying bool) {
					m.Reset()
					pl, err := pusch.NewPipeline(m, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for s := range 5 {
						if err := pl.RunSymbol(s, tx.RxTime[s]); err != nil {
							t.Fatal(err)
						}
					}
					if err := row.stop(pl); (err != nil) != (replaying && row.replays && pipelined) {
						t.Fatalf("stopping the slot: %v", err)
					}
				}
				whole := func(replayed int, lookups uint64) {
					m.Reset()
					before := m.MemoLookups()
					if got := slotBytes(t, m, cfg); !bytes.Equal(got, want) {
						t.Fatalf("record\n%s\nfresh\n%s", got, want)
					}
					if m.MemoSlots() != 1 || m.Replayed() != replayed || m.MemoLookups()-before != lookups {
						t.Fatalf("%d slot entries, %d Runs replayed and %d memo lookups, want 1, %d and %d",
							m.MemoSlots(), m.Replayed(), m.MemoLookups()-before, replayed, lookups)
					}
				}
				abandon(false)
				if m.MemoSlots() != 0 {
					t.Fatalf("the abandoned slot committed %d slot entries", m.MemoSlots())
				}
				whole(layout.stages, 1+uint64(layout.stages))
				abandon(true)
				if m.Replayed() == 0 {
					t.Fatal("the abandoned prefix did not replay")
				}
				whole(layout.runs, 1)
			})
		}
	}
}

// TestReplayedSlotRefuses: after a replayed slot, whose bank bookings
// the table never saw, a timed Run, RunSynced or RunWarm returns an
// error and moves no clock, and so does another chain slot on the
// machine; after a Reset all of them run again.
func TestReplayedSlotRefuses(t *testing.T) {
	cfg := pipeSlot()
	m := engine.NewMachine(cfg.Cluster)
	for range 2 {
		m.Reset()
		slotBytes(t, m, cfg)
	}
	if m.Replayed() != 17 {
		t.Fatalf("%d of the slot's 17 Runs replayed", m.Replayed())
	}
	job := engine.Job{Name: "after", Cores: []int{0, 1}, Phases: []engine.Phase{{Name: "p", Work: func(p *engine.Proc) { p.Tick(3) }}}}
	runs := []struct {
		name string
		run  func() error
	}{
		{"Run", func() error { return m.Run(job) }},
		{"RunSynced", func() error { return m.RunSynced(engine.SyncKey{Unit: 1}, job) }},
		{"RunWarm", func() error { _, err := m.RunWarm("warm", nil, job); return err }},
		{"RunChainOn", func() error { _, err := pusch.RunChainOn(m, cfg); return err }},
	}
	for _, r := range runs {
		before := m.Cycles()
		if err := r.run(); err == nil {
			t.Errorf("%s after a replayed slot: no error", r.name)
		}
		if m.Cycles() != before {
			t.Errorf("the refused %s moved the clock from %d to %d", r.name, before, m.Cycles())
		}
	}
	for _, r := range runs {
		m.Reset()
		if err := r.run(); err != nil {
			t.Errorf("%s after Reset: %v", r.name, err)
		}
	}
}
