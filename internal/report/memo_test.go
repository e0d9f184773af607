package report

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// eachField calls fn with the path and value of every exported leaf
// field of the struct v, recursing into embedded structs and into the
// elements of slices.
func eachField(v reflect.Value, path string, fn func(path string, f reflect.Value)) {
	for i := range v.NumField() {
		f, sf := v.Field(i), v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		p := path + "." + sf.Name
		switch f.Kind() {
		case reflect.Struct:
			eachField(f, p, fn)
		case reflect.Slice:
			for j := range f.Len() {
				eachField(f.Index(j), fmt.Sprintf("%s[%d]", p, j), fn)
			}
		default:
			fn(p, f)
		}
	}
}

// TestSlotMemoCoversEveryField: with every exported field set to its
// own non-zero value, a record the memo remembers and a copy with any
// one SlotRecord or SlotPhase field changed in place are different
// records: same says so, and the memo writes the copy's own line,
// AppendJSON's. A JobRecord field outside SlotRecord leaves the slot
// record the same, and the hit writes the line's own head and tail. A
// field added to SlotRecord or SlotPhase without SlotRecord.same fails
// here; so does a memo that aliased the caller's Phases.
func TestSlotMemoCoversEveryField(t *testing.T) {
	var r JobRecord
	fill(t, reflect.ValueOf(&r).Elem(), &distinct{})
	d := &distinct{k: 1000}
	fields := 0
	eachField(reflect.ValueOf(&r).Elem(), "JobRecord", func(path string, f reflect.Value) {
		fields++
		before := r.SlotRecord
		before.Phases = slices.Clone(r.Phases)
		var m SlotMemo
		orig, ok := m.AppendJSON(nil, &r)
		if !ok {
			t.Fatalf("memo declined %s", orig)
		}
		old := reflect.ValueOf(f.Interface())
		setField(f, d)
		defer f.Set(old)
		want, _ := r.AppendJSON(nil)
		got, ok := m.AppendJSON(nil, &r)
		inSlot := strings.HasPrefix(path, "JobRecord.SlotRecord.")
		switch {
		case !ok || !bytes.Equal(got, want):
			t.Errorf("%s changed: memo wrote (accepted %v)\n%s\nAppendJSON writes\n%s", path, ok, got, want)
		case bytes.Equal(got, orig):
			t.Errorf("%s changed: the line did not change", path)
		case inSlot == before.same(&r.SlotRecord):
			t.Errorf("%s changed: same reports %v", path, inSlot)
		}
	})
	if fields < 40 {
		t.Fatalf("walked %d fields: fill or eachField lost some", fields)
	}
}

// TestSlotMemoEdgeRecords: records equal by value but not by bytes stay
// apart — nil and empty Phases (null and []), 0 and -0 — and records
// AppendJSON declines never enter the memo and are declined again.
func TestSlotMemoEdgeRecords(t *testing.T) {
	base := JobRecord{Job: 7, SlotRecord: SlotRecord{
		Kind: "chain", Cluster: "MemPool", Cores: 256, UEs: 4,
		Phases:      []SlotPhase{{Name: "fft", PerPass: 10, Passes: 1, Cycles: 10, Share: 1}},
		TotalCycles: 1000, TimeMs: 0.001, PayloadBits: 4096, ThroughputGbps: 4.096,
	}}
	with := func(mut func(*JobRecord)) JobRecord {
		r := base
		r.Phases = slices.Clone(base.Phases)
		mut(&r)
		return r
	}
	nilPhases := with(func(r *JobRecord) { r.Phases = nil })
	emptyPhases := with(func(r *JobRecord) { r.Phases = []SlotPhase{} })
	negZero := with(func(r *JobRecord) { r.TimeMs = math.Copysign(0, -1) })
	zero := with(func(r *JobRecord) { r.TimeMs = 0 })
	zeroShare := with(func(r *JobRecord) { r.Phases[0].Share = 0 })
	negZeroShare := with(func(r *JobRecord) { r.Phases[0].Share = math.Copysign(0, -1) })
	nan := with(func(r *JobRecord) { r.BER = math.NaN() })
	escaped := with(func(r *JobRecord) { r.Cluster = "Mem<Pool>" })
	badName := with(func(r *JobRecord) { r.Name = "\xff" })
	for _, tc := range []struct {
		name     string
		lines    []JobRecord
		declined bool // every record is declined; the memo stays empty
	}{
		{"nil then empty phases", []JobRecord{nilPhases, emptyPhases, nilPhases, emptyPhases}, false},
		{"0 then -0", []JobRecord{zero, negZero, zero, negZero}, false},
		{"phase share 0 then -0", []JobRecord{zeroShare, negZeroShare, zeroShare, negZeroShare}, false},
		{"NaN", []JobRecord{nan, nan}, true},
		{"escaped string", []JobRecord{escaped, escaped}, true},
		{"escaped job name", []JobRecord{badName, badName}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m SlotMemo
			for i := range tc.lines {
				got, ok := m.AppendJSON([]byte("head\n"), &tc.lines[i])
				checkWire(t, &tc.lines[i], "head\n", got, ok)
			}
			if n := remembered(&m); tc.declined && n != 0 {
				t.Errorf("%d declined records entered the memo", n)
			}
		})
	}
}

// remembered counts the records m holds.
func remembered(m *SlotMemo) int {
	n := 0
	for i := range m.sets {
		for _, e := range m.sets[i].ways {
			if len(e.body) > 0 {
				n++
			}
		}
	}
	return n
}

// TestSlotMemoHitAllocsNothing: a warm hit copies the remembered body
// into dst's spare capacity and allocates nothing.
func TestSlotMemoHitAllocsNothing(t *testing.T) {
	var r JobRecord
	fill(t, reflect.ValueOf(&r).Elem(), &distinct{})
	var m SlotMemo
	buf, ok := m.AppendJSON(nil, &r)
	if !ok {
		t.Fatalf("memo declined %s", buf)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = m.AppendJSON(buf[:0], &r) }); n != 0 {
		t.Fatalf("a warm hit allocates %v times", n)
	}
}

// FuzzSlotMemo passes a record, a copy with one field changed and the
// record again through one SlotMemo, and holds each line to what
// AppendJSON must write: encoding/json's bytes, or a decline. So the
// memo never writes a remembered body for a record that differs from
// it, and a declined record stays declined. field picks the changed
// field among the record's leaves (one past the last swaps nil and
// empty Phases), and alt supplies its new value as fuzzSource does.
func FuzzSlotMemo(f *testing.F) {
	for i, v := range []float64{0, math.Copysign(0, -1), 1, 0.1, 1e-7, 1e21, math.NaN(), math.Inf(1)} {
		f.Add(fuzzWords(v), fuzzPlain, uint8(3), uint8(5*i), fuzzWords(-v))
	}
	f.Add(fuzzWords(2.5), fuzzPlain, uint8(1), uint8(255), []byte{})
	f.Add(fuzzWords(2.5), fuzzPlain, uint8(2), uint8(3), []byte("\x01<"))
	f.Fuzz(func(t *testing.T, words, strs []byte, shape, field uint8, alt []byte) {
		var r JobRecord
		fill(t, reflect.ValueOf(&r).Elem(), &fuzzSource{words: words, strs: strs, shape: shape})
		c := r
		c.Phases = slices.Clone(r.Phases)
		var leaves []reflect.Value
		eachField(reflect.ValueOf(&c).Elem(), "", func(_ string, f reflect.Value) { leaves = append(leaves, f) })
		switch k := int(field) % (len(leaves) + 1); {
		case k < len(leaves):
			setField(leaves[k], &fuzzSource{words: alt, strs: alt})
		case c.Phases == nil:
			c.Phases = []SlotPhase{}
		default:
			c.Phases = nil
		}
		var m SlotMemo
		for i, x := range []*JobRecord{&r, &c, &r} {
			prefix := fmt.Sprintf("line %d\n", i)
			got, ok := m.AppendJSON([]byte(prefix), x)
			checkWire(t, x, prefix, got, ok)
		}
	})
}
