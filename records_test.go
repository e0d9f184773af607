package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/arch"
	"repro/internal/bench"
	ipusch "repro/internal/pusch"
	"repro/internal/report"
)

// recordsPath pins every measured record of the paper's evaluation byte
// for byte. Regenerate it deliberately with
//
//	go test -run TestPaperRecords -update-records .
const recordsPath = "testdata/paper_records.json"

var updateRecords = flag.Bool("update-records", false, "rewrite "+recordsPath+" from this tree")

// useCaseRecordConfigs are the pinned Fig. 9c configurations: the
// paper's TeraPool use case, its full-MIMO variant, and the reduced
// MemPool slot of TestUseCaseSmall with the serial baseline.
func useCaseRecordConfigs() []ipusch.UseCaseConfig {
	full := ipusch.DefaultUseCase()
	full.FullMIMO = true
	return []ipusch.UseCaseConfig{
		ipusch.DefaultUseCase(),
		full,
		{
			Cluster:      arch.MemPool(),
			Symbols:      14,
			DataSymbols:  12,
			NFFT:         1024,
			NR:           16,
			NB:           8,
			NL:           4,
			CholPerRound: 4,
			WithSerial:   true,
		},
	}
}

// paperRecords measures every pinned record: the 18 Fig. 8/9 and 6
// cluster-scaling kernel experiments, the three MemPool MMM window
// ablations, and the Fig. 9c use cases.
func paperRecords(t *testing.T) *report.Document {
	t.Helper()
	exps, err := bench.Experiments("both", "all", false)
	if err != nil {
		t.Fatal(err)
	}
	doc := report.NewDocument("paper-records")
	var errs []error
	doc.Kernels, errs = bench.RunExperiments(exps)
	for _, err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r, err := bench.RunMMMWindow(arch.MemPool(), i)
		if err != nil {
			t.Fatal(err)
		}
		doc.Kernels = append(doc.Kernels, r.Record())
	}
	for _, cfg := range useCaseRecordConfigs() {
		res, err := ipusch.RunUseCase(cfg)
		if err != nil {
			t.Fatal(err)
		}
		doc.Slots = append(doc.Slots, res.Record(cfg))
	}
	return doc
}

// TestPaperRecords holds every record of the paper's evaluation to its
// committed JSON, byte for byte. The quick-gate baseline diff compares
// cycles, instructions and core counts; this pin also covers stall
// fractions, serial IPC, speedups and the Fig. 9c budgets.
func TestPaperRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("the full record set takes tens of seconds")
	}
	doc := paperRecords(t)
	if *updateRecords {
		if err := doc.WriteFile(recordsPath); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(recordsPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test -run TestPaperRecords -update-records .)", err)
	}
	var pinned struct {
		Kernels []json.RawMessage `json:"kernels"`
		Slots   []json.RawMessage `json:"slots"`
	}
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	if len(doc.Kernels) != len(pinned.Kernels) || len(doc.Slots) != len(pinned.Slots) {
		t.Fatalf("measured %d kernel and %d slot records, pinned %d and %d",
			len(doc.Kernels), len(doc.Slots), len(pinned.Kernels), len(pinned.Slots))
	}
	compare := func(what string, i int, rec any, want json.RawMessage) {
		got, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var w bytes.Buffer
		if err := json.Compact(&w, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w.Bytes()) {
			t.Errorf("%s record %d drifted:\n got %s\nwant %s", what, i, got, w.Bytes())
		}
	}
	for i, rec := range doc.Kernels {
		compare("kernel", i, rec, pinned.Kernels[i])
	}
	for i, rec := range doc.Slots {
		compare("slot", i, rec, pinned.Slots[i])
	}
}
