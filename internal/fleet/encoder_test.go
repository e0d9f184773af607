package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/sched"
)

// marshalServed returns what encoding/json writes for each served
// record of results, one line each.
func marshalServed(t *testing.T, results []sched.JobResult) [][]byte {
	t.Helper()
	var lines [][]byte
	for i := range results {
		if results[i].Outcome != sched.Served {
			continue
		}
		b, err := json.Marshal(&results[i].Record)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, append(b, '\n'))
	}
	return lines
}

// TestFleetWriteJSONLNonFiniteRecord: a served record that
// encoding/json refuses — an error-free slot, whose EVM waveform.EVMdB
// reports as -Inf — ends the fleet's stream at the line before it, with
// encoding/json's own error.
func TestFleetWriteJSONLNonFiniteRecord(t *testing.T) {
	jobs := []sched.Job{stubJob("a", 0, 100), stubJob("b", 1000, 100), stubJob("c", 2000, 100)}
	jobs[2].Chain.SNRdB = 99 // the error-free slot
	f := stubFleet(Config{Cells: Homogeneous(2, Cell{}), Policy: RoundRobin, Workers: 1})
	inner := f.measure
	f.measure = func(pool *engine.Machines, c pusch.ChainConfig) (report.SlotRecord, error) {
		rec, err := inner(pool, c)
		if c.SNRdB == 99 {
			rec.EVMdB = math.Inf(-1)
		}
		return rec, err
	}
	results, _ := f.Serve(jobs)
	var buf bytes.Buffer
	_, err := f.WriteJSONL(&buf, jobs)
	var unsupported *json.UnsupportedValueError
	if !errors.As(err, &unsupported) {
		t.Fatalf("WriteJSONL returned %v, want a *json.UnsupportedValueError", err)
	}
	if want := bytes.Join(marshalServed(t, results[:2]), nil); !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("stream before the error:\n%s\nwant the lines of jobs a and b only:\n%s", buf.Bytes(), want)
	}
}

// TestFleetWriteJSONLEscapedNames: names that encoding/json escapes
// (HTML characters, a quote and a backslash, U+2028, an invalid UTF-8
// byte) stream the bytes json.Marshal writes for each record, line by
// line, on every cell.
func TestFleetWriteJSONLEscapedNames(t *testing.T) {
	names := []string{"plain", "a<b>", "x&y", "line\u2028sep", "bad\xffbyte", `q"\`, "tab\t", "\u00fcn\u00ef"}
	jobs := make([]sched.Job, len(names))
	for i, name := range names {
		jobs[i] = stubJob(name, int64(i)*1000, 100) // never queues: line i is job i
	}
	f := stubFleet(Config{Cells: Homogeneous(2, Cell{}), Policy: RoundRobin, Workers: 1})
	results, _ := f.Serve(jobs)
	var buf bytes.Buffer
	if _, err := f.WriteJSONL(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	if len(got) < len(jobs) {
		t.Fatalf("%d lines, want %d job lines and the summaries", len(got), len(jobs))
	}
	for i, want := range marshalServed(t, results) {
		if !bytes.Equal(got[i], want) {
			t.Errorf("line %d (job %q):\n%s\nwant:\n%s", i, names[i], got[i], want)
		}
	}
}
