package report

import (
	"bytes"
	"os"
	"testing"
)

// FuzzRead checks the benchmark-document parser behind benchgate's
// -baseline file: any input is rejected with an error, or
// parsed into a document that writes and re-reads to the same bytes and
// whose diff against itself reports nothing but duplicate keys.
func FuzzRead(f *testing.F) {
	for _, path := range []string{"../../testdata/baseline_kernels.json", "../../BENCH_2026-08-08.json"} {
		seed, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"schema":"repro-bench/v1","slots":[{"kind":"chain"},{"kind":"chain"}]}`))
	f.Add([]byte(`{"schema":"repro-bench/v0"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := d.Write(&first); err != nil {
			t.Fatalf("accepted document does not write: %v", err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written document does not re-read: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatalf("re-read document does not write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write/read round trip moved bytes:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
		for _, drift := range Diff(d, d) {
			if drift.Field != "duplicate" {
				t.Fatalf("document differs from itself: %s", drift)
			}
		}
	})
}
