package pusch

import (
	"slices"
	"testing"

	"repro/internal/arch"
)

// FuzzParseLayout checks that a layout name either errors or resolves,
// on MemPool and TeraPool, to a layout whose cores all lie in
// [0, NumCores) and whose String form parses back to it — never panics.
func FuzzParseLayout(f *testing.F) {
	f.Add("")
	f.Add("pipe")
	f.Add("PIPE/F64/B32/D64")
	f.Add("pipe/f256/b0/d0")
	f.Add("pipe/f-1/b1/d1")
	f.Add("pipe/f9223372036854775807/b1/d1")
	f.Add("pipe/f1/b9223372036854775807/d9223372036854775807")
	clusters := []*arch.Config{arch.MemPool(), arch.TeraPool()}
	f.Fuzz(func(t *testing.T, name string) {
		for _, cluster := range clusters {
			lay, err := ParseLayout(name, cluster)
			if err != nil {
				continue
			}
			for _, st := range Stages {
				for _, c := range lay.Part(st) {
					if c < 0 || c >= cluster.NumCores() {
						t.Fatalf("%s: ParseLayout(%q) puts stage %s on core %d outside [0, %d)",
							cluster.Name, name, st, c, cluster.NumCores())
					}
				}
			}
			back, err := ParseLayout(lay.String(), cluster)
			if err != nil {
				t.Fatalf("%s: ParseLayout(%q).String() = %q does not parse: %v", cluster.Name, name, lay.String(), err)
			}
			for _, st := range Stages {
				if !slices.Equal(back.Part(st), lay.Part(st)) {
					t.Fatalf("%s: ParseLayout(%q) stage %s = %v, but its String %q parses to %v",
						cluster.Name, name, st, lay.Part(st), lay.String(), back.Part(st))
				}
			}
		}
	})
}
