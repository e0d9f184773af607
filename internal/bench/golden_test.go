package bench

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/report"
)

// baselinePath is the committed golden document, regenerated with
//
//	go run ./cmd/kernelbench -update-baseline
const baselinePath = "../../testdata/baseline_kernels.json"

// TestGoldenBaselineCycles replays the quick experiment subset — one
// FFT, MMM and Cholesky configuration on both MemPool and TeraPool plus
// the cluster-scaling curve — and asserts the exact cycle counts of the
// committed baseline. The engine is deterministic, so any mismatch is a
// real performance change: regenerate the baseline deliberately when
// one is intended. This is the same comparison cmd/benchgate runs in
// the CI perf gate.
func TestGoldenBaselineCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment subset takes ~10s")
	}
	base, err := report.Load(baselinePath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go run ./cmd/kernelbench -update-baseline)", err)
	}
	records, errs := RunExperiments(QuickExperiments())
	for _, err := range errs {
		t.Error(err)
	}
	fresh := report.NewDocument("test")
	fresh.Kernels = records
	for _, d := range report.Diff(base, fresh) {
		t.Errorf("golden drift: %s", d)
	}
}

// TestDeterministicReplay runs one experiment per kernel family twice
// and requires byte-identical records, the property the whole gate
// rests on. Each serial baseline runs beside its parallel pass on a
// second goroutine, so under -race this also checks that the two share
// nothing.
func TestDeterministicReplay(t *testing.T) {
	cfg := arch.TeraPool()
	runs := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"fft", func() (*Result, error) { return RunFFT(cfg, PaperFFTConfigs(cfg)[0]) }},
		{"mmm", func() (*Result, error) { return RunMMM(cfg, PaperMMMConfigs()[0]) }},
		{"chol", func() (*Result, error) { return RunChol(cfg, PaperCholConfigs(cfg)[0]) }},
	}
	for _, rr := range runs {
		first, err := rr.run()
		if err != nil {
			t.Fatalf("%s: %v", rr.name, err)
		}
		second, err := rr.run()
		if err != nil {
			t.Fatalf("%s: %v", rr.name, err)
		}
		if !reflect.DeepEqual(first.Record(), second.Record()) {
			t.Errorf("%s: records differ across identical runs:\n%+v\n%+v",
				rr.name, first.Record(), second.Record())
		}
	}
}
