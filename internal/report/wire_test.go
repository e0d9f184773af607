package report

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"
	"unicode/utf8"
)

// source supplies field values to fill.
type source interface {
	str() string
	int() int64
	uint() uint64
	float() float64
	// phases is the length of a Phases slice, or -1 for a nil one.
	phases() int
}

// fill sets every exported field of the struct v, recursing into the
// embedded SlotRecord and into Phases' elements, from src. A field of a
// kind it does not know fails the test: AppendJSON would not know it
// either.
func fill(t *testing.T, v reflect.Value, src source) {
	t.Helper()
	for i := range v.NumField() {
		f, sf := v.Field(i), v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		switch {
		case f.Kind() == reflect.Struct:
			fill(t, f, src)
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Struct:
			if n := src.phases(); n >= 0 {
				f.Set(reflect.MakeSlice(f.Type(), n, n))
				for j := range n {
					fill(t, f.Index(j), src)
				}
			}
		case !setField(f, src):
			t.Fatalf("%s.%s is a %s: teach JobRecord.AppendJSON and this test to encode it", v.Type(), sf.Name, f.Type())
		}
	}
}

// setField sets the string, integer or float field f from src and
// reports whether f is of one of those kinds.
func setField(f reflect.Value, src source) bool {
	switch f.Kind() {
	case reflect.String:
		f.SetString(src.str())
	case reflect.Int, reflect.Int64:
		f.SetInt(src.int())
	case reflect.Uint64:
		f.SetUint(src.uint())
	case reflect.Float64:
		f.SetFloat(src.float())
	default:
		return false
	}
	return true
}

// encodeJSON returns what json.Encoder writes for r, or its error.
func encodeJSON(r *JobRecord) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

// distinct gives every field its own non-zero value and two phases.
type distinct struct{ k int }

func (d *distinct) next() int      { d.k++; return d.k }
func (d *distinct) str() string    { return "s" + strconv.Itoa(d.next()) }
func (d *distinct) int() int64     { return -int64(d.next()) }
func (d *distinct) uint() uint64   { return uint64(d.next()) }
func (d *distinct) float() float64 { return float64(d.next()) + 0.25 }
func (d *distinct) phases() int    { return 2 }

// TestJobRecordWireCoversEveryField: with every exported field of
// JobRecord, SlotRecord and SlotPhase set to its own non-zero value,
// AppendJSON writes encoding/json's bytes, so a field added without the
// hand encoder fails here.
func TestJobRecordWireCoversEveryField(t *testing.T) {
	var r JobRecord
	fill(t, reflect.ValueOf(&r).Elem(), &distinct{})
	want, err := encodeJSON(&r)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := r.AppendJSON(nil)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON (accepted %v):\n%s\nencoding/json:\n%s", ok, got, want)
	}
}

// fuzzSource draws the numeric fields from 8-byte words, zero once the
// words run out: floats from raw bits (NaN, ±Inf, -0 and subnormals
// included), ints and uints from the same bits (negative ints
// included). Strings are length-prefixed runs of arbitrary bytes, and
// shape picks nil, empty or 1–3 phases.
type fuzzSource struct {
	words, strs []byte
	shape       uint8
}

func (s *fuzzSource) bits() uint64 {
	var w [8]byte
	s.words = s.words[copy(w[:], s.words):]
	return binary.LittleEndian.Uint64(w[:])
}

func (s *fuzzSource) str() string {
	if len(s.strs) == 0 {
		return ""
	}
	n := min(int(s.strs[0]), len(s.strs)-1)
	v := string(s.strs[1 : 1+n])
	s.strs = s.strs[1+n:]
	return v
}

func (s *fuzzSource) int() int64     { return int64(s.bits()) }
func (s *fuzzSource) uint() uint64   { return s.bits() }
func (s *fuzzSource) float() float64 { return math.Float64frombits(s.bits()) }
func (s *fuzzSource) phases() int    { return int(s.shape%5) - 1 }

// fuzzWords is 64 words of v's bits: a fuzzSource whose numeric fields
// all read v.
func fuzzWords(v float64) []byte {
	var b []byte
	for range 64 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// fuzzPlain is a fuzzSource's strings that encoding/json writes verbatim.
var fuzzPlain = []byte("\x05chain\x07MemPool\x04qpsk\x04ofdm\x02bf\x03che\x02ne\x04mimo")

// checkWire fails t unless got and ok, returned by an encoder that
// appended r's line to prefix, are what AppendJSON must return: it
// accepts exactly the records encoding/json writes without an escape,
// a non-ASCII byte or an error, and then appends encoding/json's bytes;
// otherwise it appends nothing.
func checkWire(t *testing.T, r *JobRecord, prefix string, got []byte, ok bool) {
	t.Helper()
	want, err := encodeJSON(r)
	verbatim := err == nil && !bytes.ContainsAny(want, `\`) && !bytes.ContainsFunc(want, func(c rune) bool { return c >= utf8.RuneSelf })
	if string(got[:len(prefix)]) != prefix {
		t.Fatalf("encoder overwrote its destination: %q", got)
	}
	got = got[len(prefix):]
	switch {
	case ok != verbatim:
		t.Fatalf("encoder accepted %v, want %v (encoding/json: %q, %v)", ok, verbatim, want, err)
	case ok && !bytes.Equal(got, want):
		t.Fatalf("encoder:\n%q\nencoding/json:\n%q", got, want)
	case !ok && len(got) != 0:
		t.Fatalf("encoder declined but appended %q", got)
	}
}

// FuzzJobRecordWire holds AppendJSON to encoding/json: it accepts
// exactly the records encoding/json writes without an escape, a
// non-ASCII byte or an error, and then appends encoding/json's bytes.
func FuzzJobRecordWire(f *testing.F) {
	for i, v := range []float64{
		0, math.Copysign(0, -1), 1, -123.456, 0.1, 1e-7, 5e-324, 1e300,
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), -1e21,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(fuzzWords(v), fuzzPlain, uint8(i))
	}
	for i, s := range []string{"<", ">", "&", `"`, `\`, "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\xff"} {
		f.Add(fuzzWords(2.5), append([]byte{byte(len(s))}, s...), uint8(i))
	}
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, words, strs []byte, shape uint8) {
		var r JobRecord
		fill(t, reflect.ValueOf(&r).Elem(), &fuzzSource{words: words, strs: strs, shape: shape})
		const prefix = "line 0\n"
		got, ok := r.AppendJSON([]byte(prefix))
		checkWire(t, &r, prefix, got, ok)
	})
}
