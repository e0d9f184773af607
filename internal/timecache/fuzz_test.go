package timecache

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/report"
)

// FuzzReadJSONL checks the warm-start path of a persisted cache file: a
// stream loads or errors, never panics, and whatever it loads (before
// an error too) is a valid cache. Every entry is keyed, shaped and
// unstamped, the capacity holds, and writing the cache out and loading
// it again reproduces the same bytes with nothing rejected.
func FuzzReadJSONL(f *testing.F) {
	seed := New(0)
	seed.Add("tc1|chain/a", report.SlotRecord{Kind: "chain", Cluster: "MemPool", Cores: 256, TotalCycles: 1234, PayloadBits: 256})
	seed.Add("tc1|chain/b", report.SlotRecord{
		Kind: "chain", Cluster: "TeraPool", Cores: 1024, TotalCycles: 99,
		Phases: []report.SlotPhase{{Name: "fft", PerPass: 50, Passes: 1, Cycles: 50, Share: 0.5}},
	})
	var buf bytes.Buffer
	if err := seed.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"key":"k","record":{"kind":"chain","timing":"analytic"}}`)
	f.Add("{\"key\":\"\",\"record\":{}}\n{\"key\":")
	f.Add(`{"key":"k","record":{"kind":"chain","cycles":1e400}}`)
	const capacity = 4
	f.Fuzz(func(t *testing.T, stream string) {
		c := New(capacity)
		added, rejected, _ := c.ReadJSONL(strings.NewReader(stream))
		if added < 0 || rejected < 0 || c.Len() > added || c.Len() > capacity {
			t.Fatalf("added %d, rejected %d, %d entries in a cache of %d", added, rejected, c.Len(), capacity)
		}
		var out bytes.Buffer
		if err := c.WriteJSONL(&out); err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(out.Bytes()))
		for dec.More() {
			var e Entry
			if err := dec.Decode(&e); err != nil {
				t.Fatalf("cache wrote an unreadable entry: %v", err)
			}
			if e.Key == "" || e.Record.Kind == "" || e.Record.Timing != "" {
				t.Fatalf("cache accepted an invalid entry: %+v", e)
			}
		}
		back := New(capacity)
		added, rejected, err := back.ReadJSONL(bytes.NewReader(out.Bytes()))
		if err != nil || rejected != 0 || added != c.Len() {
			t.Fatalf("reloading the written cache: added %d of %d, rejected %d, err %v", added, c.Len(), rejected, err)
		}
		var again bytes.Buffer
		if err := back.WriteJSONL(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatalf("write/read/write is not stable:\n%s\n%s", out.Bytes(), again.Bytes())
		}
	})
}
