package campaign

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/pusch"
	"repro/internal/report"
	"repro/internal/timecache"
	"repro/internal/timing"
	"repro/internal/waveform"
)

// stubMeasure stands in for the chain in the memo tests: a record that
// is a pure function of the normalized configuration, or its error,
// with no engine run.
func stubMeasure(_ *engine.Machines, cfg pusch.ChainConfig) (report.SlotRecord, error) {
	n, err := cfg.Normalized()
	if err != nil {
		return report.SlotRecord{}, err
	}
	cycles := int64(n.NSC*n.NL*n.NSymb) + int64(n.Seed%997)
	return report.SlotRecord{
		Kind: "chain", Cluster: n.Cluster.Name, Cores: n.Cluster.NumCores(),
		UEs: n.NL, Scheme: n.Scheme.Name(), TotalCycles: cycles, SigmaEst: n.SNRdB,
		Phases: []report.SlotPhase{{Name: "fft", PerPass: cycles, Passes: 1, Cycles: cycles, Share: 1}},
	}, nil
}

// eachLeaf calls fn with the path and value of every exported leaf
// field of v, recursing into structs, the values pointers point to and
// the elements of arrays and slices.
func eachLeaf(v reflect.Value, path string, fn func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if sf := v.Type().Field(i); sf.IsExported() {
				eachLeaf(v.Field(i), path+"."+sf.Name, fn)
			}
		}
	case reflect.Pointer:
		if !v.IsNil() {
			eachLeaf(v.Elem(), "(*"+path+")", fn)
		}
	case reflect.Array, reflect.Slice:
		for j := range v.Len() {
			eachLeaf(v.Index(j), fmt.Sprintf("%s[%d]", path, j), fn)
		}
	default:
		fn(path, v)
	}
}

// leafAt returns the i-th leaf of cfg in eachLeaf's order.
func leafAt(cfg *pusch.ChainConfig, i int) reflect.Value {
	var leaf reflect.Value
	k := 0
	eachLeaf(reflect.ValueOf(cfg).Elem(), "", func(_ string, f reflect.Value) {
		if k == i {
			leaf = f
		}
		k++
	})
	return leaf
}

// setLeaf sets f to a value derived from k, distinct for distinct k;
// a bool flips.
func setLeaf(t *testing.T, path string, f reflect.Value, k int) {
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(int64(k))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(uint64(k))
	case reflect.Float64:
		f.SetFloat(float64(k) + 0.5)
	case reflect.String:
		f.SetString(fmt.Sprint("s", k))
	case reflect.Bool:
		f.SetBool(!f.Bool())
	default:
		t.Fatalf("%s: no second value for a %s field", path, f.Kind())
	}
}

// cloneConfig copies c with its own cluster and partitions.
func cloneConfig(c pusch.ChainConfig) pusch.ChainConfig {
	if c.Cluster != nil {
		cl := *c.Cluster
		c.Cluster = &cl
	}
	l := &c.Layout
	l.FFT, l.BF, l.CHE, l.NE, l.MIMO = slices.Clone(l.FFT), slices.Clone(l.BF), slices.Clone(l.CHE), slices.Clone(l.NE), slices.Clone(l.MIMO)
	return c
}

// fullConfig is a configuration with every leaf of ChainConfig, its
// channel spec, layout and cluster set to a value of its own. Whether
// it is valid does not matter to the memo: an invalid one resolves to
// its error.
func fullConfig(t *testing.T) pusch.ChainConfig {
	cfg := pusch.ChainConfig{
		Cluster: arch.MemPool(),
		Layout:  pusch.Layout{FFT: pusch.CoreSet{0, 0}, BF: pusch.CoreSet{0}, CHE: pusch.CoreSet{0}, NE: pusch.CoreSet{0}, MIMO: pusch.CoreSet{0}},
	}
	k := 0
	eachLeaf(reflect.ValueOf(&cfg).Elem(), "ChainConfig", func(path string, f reflect.Value) {
		k++
		setLeaf(t, path, f, k)
	})
	return cfg
}

// remember looks cfg up in m until m keeps it (a configuration that
// misses twice in a row is kept) and returns the kept resolution.
func remember(m *Memo, cfg *pusch.ChainConfig, model *timing.Model) *resolution {
	m.lookup(cfg, model)
	return m.lookup(cfg, model)
}

// checkMemo remembers a resolved against ma, then looks b up against
// mb: it must hit exactly when hit says, sameConfig must agree, and a
// miss must leave a remembered.
func checkMemo(t *testing.T, name string, a, b pusch.ChainConfig, ma, mb *timing.Model, hit bool) {
	t.Helper()
	var m Memo
	ra := remember(&m, &a, ma)
	if ra == &m.spare {
		t.Fatalf("%s: a configuration missed twice in a row is not kept", name)
	}
	if got := sameConfig(&a, &b); got != hit && ma == mb {
		t.Errorf("%s: sameConfig = %v, want %v", name, got, hit)
	}
	if got := m.lookup(&b, mb) == ra; got != hit {
		t.Errorf("%s: memo hit = %v, want %v", name, got, hit)
	}
	if m.lookup(&a, ma) != ra {
		t.Errorf("%s: the lookup evicted the configuration looked up before it", name)
	}
}

// TestResolveMemoCoversEveryField: with every leaf of ChainConfig, its
// channel spec, layout and pointed-to cluster set to a value of its
// own, a copy with any one leaf changed misses the memo, and sameConfig
// tells the two apart. So does -0 against +0 in every float field, and
// a NaN against a NaN of another payload, while a NaN against the same
// NaN hits; so do a cluster against none, a longer partition, another
// model and a configuration changed in place after the memo took it.
// An equal cluster behind another pointer and an empty partition in
// place of a nil one hit: resolution reads the cluster by value and a
// partition by its elements. A field added to any of these structs
// without sameConfig fails here.
func TestResolveMemoCoversEveryField(t *testing.T) {
	model := analyticModel(t)
	base := fullConfig(t)
	var paths []string
	var floats []int
	eachLeaf(reflect.ValueOf(&base).Elem(), "ChainConfig", func(path string, f reflect.Value) {
		if f.Kind() == reflect.Float64 {
			floats = append(floats, len(paths))
		}
		paths = append(paths, path)
	})
	if len(paths) < 40 || len(floats) != 7 {
		t.Fatalf("walked %d fields, %d floats: fullConfig or eachLeaf lost some", len(paths), len(floats))
	}
	checkMemo(t, "equal cluster behind another pointer", base, cloneConfig(base), model, model, true)
	for i, path := range paths {
		cfg := cloneConfig(base)
		setLeaf(t, path, leafAt(&cfg, i), 1000+i)
		checkMemo(t, path+" changed", base, cfg, model, model, false)
	}
	for _, i := range floats {
		with := func(v float64) pusch.ChainConfig {
			cfg := cloneConfig(base)
			leafAt(&cfg, i).SetFloat(v)
			return cfg
		}
		negZero := math.Copysign(0, -1)
		nan, otherNaN := math.NaN(), math.Float64frombits(math.Float64bits(math.NaN())^1)
		checkMemo(t, paths[i]+" +0 then -0", with(0), with(negZero), model, model, false)
		checkMemo(t, paths[i]+" -0 then +0", with(negZero), with(0), model, model, false)
		checkMemo(t, paths[i]+" NaN twice", with(nan), with(nan), model, model, true)
		checkMemo(t, paths[i]+" NaN then another NaN", with(nan), with(otherNaN), model, model, false)
	}
	parts := func(c *pusch.ChainConfig) []*pusch.CoreSet {
		l := &c.Layout
		return []*pusch.CoreSet{&l.FFT, &l.BF, &l.CHE, &l.NE, &l.MIMO}
	}
	for p := range parts(&base) {
		nilSet, emptySet, longer := cloneConfig(base), cloneConfig(base), cloneConfig(base)
		*parts(&nilSet)[p] = nil
		*parts(&emptySet)[p] = pusch.CoreSet{}
		*parts(&longer)[p] = append(*parts(&longer)[p], 7)
		checkMemo(t, fmt.Sprintf("partition %d nil then empty", p), nilSet, emptySet, model, model, true)
		checkMemo(t, fmt.Sprintf("partition %d empty then nil", p), emptySet, nilSet, model, model, true)
		checkMemo(t, fmt.Sprintf("partition %d one core longer", p), base, longer, model, model, false)
	}
	noCluster := cloneConfig(base)
	noCluster.Cluster = nil
	checkMemo(t, "cluster then none", base, noCluster, model, model, false)
	checkMemo(t, "no cluster then one", noCluster, base, model, model, false)
	checkMemo(t, "another model", base, base, model, analyticModel(t), false)

	// The memo keeps its own cluster and partitions: changing the
	// caller's in place after the lookup, in a field the hash does not
	// read, is a new configuration.
	for _, change := range []struct {
		name string
		fn   func(*pusch.ChainConfig)
	}{
		{"a cluster latency", func(c *pusch.ChainConfig) { c.Cluster.Lat.Req[1]++ }},
		{"a partition's core", func(c *pusch.ChainConfig) { c.Layout.BF[0]++ }},
	} {
		var m Memo
		cfg := cloneConfig(base)
		hit := remember(&m, &cfg, model)
		change.fn(&cfg)
		if m.lookup(&cfg, model) == hit {
			t.Errorf("%s changed in place after the lookup hits the memo", change.name)
		}
	}
}

// TestResolveMemoKeepsOnlyRepeats: a configuration is kept when it
// misses its set again while it is one of the set's last two misses, so
// a stream in which none repeats, as a fading trace's channel time never
// does, keeps none, a configuration looked up twice is kept, and so are
// two configurations that alternate in one set.
func TestResolveMemoKeepsOnlyRepeats(t *testing.T) {
	model := analyticModel(t)
	kept := func(m *Memo) int {
		n := 0
		for i := range m.sets {
			for _, e := range m.sets[i].ways {
				if e.full {
					n++
				}
			}
		}
		return n
	}
	var m Memo
	cfg := analyticBase()
	cfg.Channel = channel.Spec{Profile: channel.TDLB, DopplerHz: 30, Seed: 5}
	for i := range 1000 {
		cfg.Channel.TimeMs = float64(i) / 2
		m.lookup(&cfg, model)
	}
	if n := kept(&m); n != 0 {
		t.Errorf("1000 distinct configurations: the memo keeps %d, want 0", n)
	}
	remember(&m, &cfg, model)
	if n := kept(&m); n != 1 {
		t.Errorf("a configuration looked up twice: the memo keeps %d, want 1", n)
	}

	a, b := analyticBase(), analyticBase()
	set := func(c *pusch.ChainConfig) uint64 { return configHash(c) >> (64 - memoBits) }
	for b.Seed = 1; set(&b) != set(&a); b.Seed++ {
	}
	var alt Memo
	for range 2 {
		alt.lookup(&a, model)
		alt.lookup(&b, model)
	}
	if n := kept(&alt); n != 2 {
		t.Errorf("two configurations alternating in one set: the memo keeps %d, want 2", n)
	}
	if alt.lookup(&a, model) == &alt.spare || alt.lookup(&b, model) == &alt.spare {
		t.Error("two configurations alternating in one set: a lookup after both are kept misses")
	}
}

// TestResolveMemoHitAllocatesNothing: a memo hit served by the model or
// by the cache allocates nothing. Without the memo each costs one
// allocation: Predict's phase slice, or CacheKey's key.
func TestResolveMemoHitAllocatesNothing(t *testing.T) {
	model := analyticModel(t)
	cache := timecache.New(0)
	analytic := analyticBase()
	cached := analyticBase()
	cached.Timing, cached.Seed = pusch.TimingCycleAccurate, 1
	if _, err := Resolve(nil, cached, cache, nil, stubMeasure); err != nil {
		t.Fatal(err)
	}
	var m Memo
	for _, cfg := range []*pusch.ChainConfig{&analytic, &cached} {
		for range 2 { // kept on its second miss in a row
			if _, err := m.Resolve(nil, cfg, cache, model, stubMeasure); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = m.Resolve(nil, cfg, cache, model, stubMeasure) }); n != 0 {
			t.Errorf("%q timing: a memo hit allocates %v times, want 0", cfg.Timing, n)
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits < 102 {
		t.Errorf("cache stats %+v: want one miss (the warm-up) and every memo hit looked up", st)
	}
}

// memoFuzzBases are FuzzResolveMemo's base coordinates: analytic and
// cycle-accurate, legacy and TDL-B, sequential and pipelined, and ones
// that resolve to errors (a pipelined analytic slot, an invalid NR).
func memoFuzzBases() []pusch.ChainConfig {
	legacy := analyticBase()
	legacy.Timing, legacy.Seed, legacy.SNRdB = pusch.TimingCycleAccurate, 3, 20
	tdl := legacy
	tdl.Channel = channel.Spec{Profile: channel.TDLB, DopplerHz: 30, Seed: 5, TimeMs: 1}
	pipe := legacy
	pipe.NSymb = 14
	pipe.Layout = pusch.StockPipelined(pipe.Cluster)
	badNR := legacy
	badNR.NR = 6
	noCluster := legacy
	noCluster.Cluster = nil
	bases := []pusch.ChainConfig{legacy, tdl, pipe, badNR, noCluster}
	for _, c := range bases {
		c.Timing = pusch.TimingAnalytic
		bases = append(bases, c)
	}
	return bases
}

// memoFuzzMutate returns base with the one-field change op names (0
// changes nothing), on its own cluster and partitions.
func memoFuzzMutate(base pusch.ChainConfig, op byte) pusch.ChainConfig {
	c := cloneConfig(base)
	switch op % 17 {
	case 1:
		c.SNRdB++
	case 2:
		c.SNRdB = math.Copysign(0, -1)
	case 3:
		c.Seed++
	case 4:
		c.NL, c.Scheme = 2, waveform.QAM16
	case 5:
		if c.Timing == pusch.TimingAnalytic {
			c.Timing = pusch.TimingCycleAccurate
		} else {
			c.Timing = pusch.TimingAnalytic
		}
	case 6:
		c.Channel.TimeMs += 0.5
	case 7:
		c.DataAmp = math.Copysign(0, -1)
	case 8:
		c.Cluster = arch.TeraPool()
	case 9:
		if c.Cluster != nil {
			c.Cluster.LSUDepth++
		}
	case 10:
		l := &c.Layout
		for _, p := range []*pusch.CoreSet{&l.FFT, &l.BF, &l.CHE, &l.NE, &l.MIMO} {
			if *p == nil {
				*p = pusch.CoreSet{}
			}
		}
	case 11:
		c.NSC = 100
	case 12:
		c.Channel.DopplerHz = math.NaN()
	case 13:
		c.InterpolateChannel = true
	case 14:
		if c.Cluster != nil {
			c.Layout = pusch.StockPipelined(c.Cluster)
		}
	case 15:
		c.Taps = 2
	case 16:
		c.Channel.Seed++
	}
	return c
}

// FuzzResolveMemo: a sequence of base coordinates, each with a one-field
// change, resolved through one Memo returns what Resolve returns for
// each, record bytes and error strings alike, and leaves a twin cache
// with the same counters. Both caches are small and warmed alike with
// the bases, so the sequence hits, misses and evicts.
func FuzzResolveMemo(f *testing.F) {
	model, err := timing.Load("../../testdata/calibration.json")
	if err != nil {
		f.Fatal(err)
	}
	bases := memoFuzzBases()
	f.Add([]byte{0, 0, 0, 0, 5, 0, 5, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{1, 0, 1, 6, 1, 0, 1, 12, 6, 0, 6, 6, 6, 0})
	f.Add([]byte{2, 0, 2, 10, 2, 0, 7, 0, 7, 5, 7, 0})
	f.Add([]byte{3, 0, 3, 0, 8, 0, 8, 11, 4, 0, 4, 8, 9, 0, 9, 8})
	f.Add([]byte{0, 8, 0, 9, 0, 8, 5, 14, 5, 14, 0, 13, 0, 13, 0, 3, 0, 3})
	f.Add([]byte{0, 2, 0, 0, 0, 2, 0, 7, 0, 0, 0, 7, 5, 15, 5, 16, 5, 4, 5, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		warm := func() *timecache.Cache {
			c := timecache.New(4)
			for _, b := range bases {
				Resolve(nil, b, c, model, stubMeasure)
			}
			return c
		}
		cache, twin := warm(), warm()
		var m Memo
		for i := 0; i+1 < len(ops) && i < 256; i += 2 {
			cfg := memoFuzzMutate(bases[int(ops[i])%len(bases)], ops[i+1])
			got, gotErr := m.Resolve(nil, &cfg, cache, model, stubMeasure)
			want, wantErr := Resolve(nil, cfg, twin, model, stubMeasure)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("op %d: memo error %v, Resolve error %v", i/2, gotErr, wantErr)
			}
			g, gok := (&report.JobRecord{SlotRecord: got}).AppendJSON(nil)
			w, wok := (&report.JobRecord{SlotRecord: want}).AppendJSON(nil)
			if gok != wok || !bytes.Equal(g, w) || !gok && fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
				t.Fatalf("op %d: memo record\n%s\nResolve record\n%s", i/2, g, w)
			}
		}
		if got, want := cache.Stats(), twin.Stats(); got != want {
			t.Fatalf("cache stats through the memo %+v, through Resolve %+v", got, want)
		}
	})
}
