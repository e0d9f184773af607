package report

import (
	"math"
	"strconv"
)

// jsonLine appends JSON object members as encoding/json's Encoder
// writes them, for the values it writes verbatim. Each member's key
// arrives with its punctuation (`,"cores":`). A value encoding/json
// would escape or refuse clears ok, and the caller discards the line:
// this encoder has no escaping of its own.
type jsonLine struct {
	b  []byte
	ok bool
}

// str appends key and s quoted. It declines s when encoding/json would
// escape one of its bytes: '"', '\\', control bytes, the HTML
// characters '<', '>' and '&', and every byte from 0x80 up (invalid
// UTF-8, U+2028 and U+2029 among them).
func (l *jsonLine) str(key, s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			l.ok = false
			return
		}
	}
	l.b = append(append(append(l.b, key...), '"'), s...)
	l.b = append(l.b, '"')
}

// int appends key and v in decimal.
func (l *jsonLine) int(key string, v int64) {
	l.b = strconv.AppendInt(append(l.b, key...), v, 10)
}

// float appends key and f as encoding/json's floatEncoder writes a
// float64: shortest 'f' form, 'e' form below 1e-6 and from 1e21 up in
// magnitude, with a two-digit negative exponent trimmed (e-07 → e-7).
// It declines NaN and ±Inf, which encoding/json refuses.
func (l *jsonLine) float(key string, f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		l.ok = false
		return
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	l.b = strconv.AppendFloat(append(l.b, key...), f, format, -1, 64)
	if n := len(l.b); format == 'e' && l.b[n-4] == 'e' && l.b[n-3] == '-' && l.b[n-2] == '0' {
		l.b[n-2] = l.b[n-1]
		l.b = l.b[:n-1]
	}
}

// The omitempty forms skip a zero value, as encoding/json does; -0.0
// is zero, NaN is not.

func (l *jsonLine) optStr(key, s string) {
	if s != "" {
		l.str(key, s)
	}
}

func (l *jsonLine) optInt(key string, v int64) {
	if v != 0 {
		l.int(key, v)
	}
}

func (l *jsonLine) optUint(key string, v uint64) {
	if v != 0 {
		l.b = strconv.AppendUint(append(l.b, key...), v, 10)
	}
}

func (l *jsonLine) optFloat(key string, f float64) {
	if f != 0 {
		l.float(key, f)
	}
}
