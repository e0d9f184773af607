package timing

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/arch"
	"repro/internal/pusch"
	"repro/internal/waveform"
)

// FuzzReadCalibration checks the calibration load path: an artifact
// fails to load, or it yields a model whose Predict, on stock MemPool
// and TeraPool chains, returns an error or a stamped record whose stage
// cycles are non-negative and sum to its total. It never panics.
func FuzzReadCalibration(f *testing.F) {
	committed, err := os.ReadFile("../../testdata/calibration.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(committed)
	// Plateaus near the int64 range: each stage's wall fits, their sum
	// does not.
	huge, err := ReadCalibration(bytes.NewReader(committed))
	if err != nil {
		f.Fatal(err)
	}
	for c := range huge.Clusters {
		for s := range huge.Clusters[c].Stages {
			huge.Clusters[c].Stages[s].J0 = 4e18
		}
	}
	var buf bytes.Buffer
	if err := huge.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":"` + Schema + `","budget_p95":0.1,"clusters":[{"cluster":"MemPool","fingerprint":"0"}]}`))
	f.Add([]byte(`{"schema":"` + Schema + `","budget_p95":1e-300,"clusters":null}`))
	chains := []pusch.ChainConfig{
		{Cluster: arch.MemPool(), NSC: 64, NR: 16, NB: 8, NL: 4, NSymb: 6, NPilot: 2, Scheme: waveform.QPSK},
		{Cluster: arch.MemPool(), NSC: 256, NR: 16, NB: 8, NL: 2, NSymb: 14, NPilot: 2, Scheme: waveform.QAM16},
		{Cluster: arch.TeraPool(), NSC: 1024, NR: 32, NB: 16, NL: 4, NSymb: 14, NPilot: 2, Scheme: waveform.QAM64},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cal, err := ReadCalibration(bytes.NewReader(data))
		if err != nil {
			return
		}
		m, err := NewModel(cal)
		if err != nil {
			return
		}
		for _, cfg := range chains {
			rec, err := m.Predict(cfg)
			if err != nil {
				continue
			}
			var sum int64
			for _, ph := range rec.Phases {
				if ph.Cycles < 0 {
					t.Fatalf("%s: stage %s predicted %d cycles", cfg.Cluster.Name, ph.Name, ph.Cycles)
				}
				sum += ph.Cycles
			}
			if rec.Timing != string(pusch.TimingAnalytic) || rec.TotalCycles < 0 || sum != rec.TotalCycles {
				t.Fatalf("%s: invalid prediction: timing %q, total %d, stage sum %d", cfg.Cluster.Name, rec.Timing, rec.TotalCycles, sum)
			}
		}
	})
}
