package pusch

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/arch"
)

// CoreSet is an explicit, ordered set of simulator core ids: the unit a
// Layout hands to each chain stage. Kernel plans carve their lane sets
// from it in order, so a CoreSet is also a mapping from lane index to
// physical core.
type CoreSet []int

// coreRange returns the contiguous core set [lo, lo+n).
func coreRange(lo, n int) CoreSet {
	cs := make(CoreSet, n)
	for i := range cs {
		cs[i] = lo + i
	}
	return cs
}

// asRange reports whether the set is the contiguous ascending range
// [lo, lo+len), returning its bounds.
func (cs CoreSet) asRange() (lo, n int, ok bool) {
	if len(cs) == 0 {
		return 0, 0, false
	}
	for i, c := range cs {
		if c != cs[0]+i {
			return 0, 0, false
		}
	}
	return cs[0], len(cs), true
}

// Layout assigns each chain stage an explicit core partition, the
// spatial-pipelining axis of the TeraPool SDR follow-up papers: instead
// of every kernel spanning the whole cluster with the stages running
// back to back, disjoint partitions host the stages concurrently, so
// OFDM symbol k is in MIMO detection while symbol k+1 is being
// beamformed and symbol k+2 is in the FFT.
//
// The zero value is the sequential layout — every stage owns all cores,
// one symbol in flight — and reproduces the pre-layout chain cycle for
// cycle. A pipelined layout must assign all five stages, and distinct
// partitions must be disjoint. Stages that never run in the same beat
// may share a partition, and their tasks then serialize on it: CHE and
// MIMO (both are the detection task), and the noise combine with any
// stage. FFT, BF and detection run concurrently in every beat, so each
// needs its own partition. Partitions need not cover the cluster: at
// small slot dimensions, leaving cores idle beats paying their barrier
// traffic.
type Layout struct {
	FFT  CoreSet // OFDM demodulation (FFT) partition
	BF   CoreSet // beamforming (MMM) partition
	CHE  CoreSet // channel-estimation partition
	NE   CoreSet // noise-combine partition
	MIMO CoreSet // MIMO-detection partition
}

// Sequential is the zero-value layout: all stages on all cores, one
// symbol at a time, bit-identical to the pre-layout chain.
var Sequential = Layout{}

// Pipelined reports whether the layout carries explicit partitions.
func (l Layout) Pipelined() bool {
	return len(l.FFT) > 0 || len(l.BF) > 0 || len(l.CHE) > 0 ||
		len(l.NE) > 0 || len(l.MIMO) > 0
}

// Part returns the stage's partition (nil for every stage of the
// sequential layout, meaning "all cores").
func (l Layout) Part(st Stage) CoreSet {
	switch st {
	case StageOFDM:
		return l.FFT
	case StageBF:
		return l.BF
	case StageCHE:
		return l.CHE
	case StageNE:
		return l.NE
	case StageMIMO:
		return l.MIMO
	}
	return nil
}

// PipelinedSplit builds the canonical three-way pipelined layout on a
// cluster: the first f cores demodulate (FFT), the next b beamform, and
// the next d form the detection partition shared by channel estimation,
// the noise combine and MIMO detection. f+b+d may be less than the
// cluster size — the remaining cores idle, which at small allocations
// is cheaper than enrolling them in barriers.
func PipelinedSplit(cluster *arch.Config, f, b, d int) (Layout, error) {
	n := cluster.NumCores()
	switch {
	case f <= 0 || b <= 0 || d <= 0:
		return Layout{}, fmt.Errorf("pusch: layout split %d/%d/%d must be positive", f, b, d)
	// Bound each term by the cores still free: the sum f+b+d can overflow.
	case f > n || b > n-f || d > n-f-b:
		return Layout{}, fmt.Errorf("pusch: layout split %d+%d+%d exceeds the %d-core cluster", f, b, d, n)
	}
	det := coreRange(f+b, d)
	return Layout{
		FFT:  coreRange(0, f),
		BF:   coreRange(f, b),
		CHE:  det,
		NE:   det,
		MIMO: det,
	}, nil
}

// StockPipelined returns the stock partitioned layout for a cluster:
// half the cores to the FFT, a quarter to beamforming and a quarter to
// the detection partition. The split was tuned with campaign.LayoutSweep
// on the stock MemPool/TeraPool shapes over the reduced-dimension
// functional slots (it won both the 64-SC MemPool gate slot and the
// 256-SC TeraPool slot); sweep alternatives for other workloads.
func StockPipelined(cluster *arch.Config) Layout {
	c := cluster.NumCores()
	l, err := PipelinedSplit(cluster, c/2, c/4, c/4)
	if err != nil {
		// Unreachable for any validated cluster: the split covers the
		// cores exactly and every term is positive for >= 4 cores; tiny
		// custom clusters fall back to sequential.
		return Sequential
	}
	return l
}

// String renders the layout's wire coordinate: "sequential", the
// canonical "pipe/f<F>/b<B>/d<D>" form for three-way contiguous splits,
// or "pipe/custom" for hand-built partition sets (which have no
// replayable wire form; see Wire).
func (l Layout) String() string {
	if !l.Pipelined() {
		return "sequential"
	}
	var buf [40]byte
	if name, ok := l.appendSplit(buf[:0]); ok {
		return string(name)
	}
	return "pipe/custom"
}

// appendSplit appends a canonical split's "pipe/f<F>/b<B>/d<D>" name to
// dst, or reports false for any other layout.
func (l Layout) appendSplit(dst []byte) ([]byte, bool) {
	f, b, d, ok := l.split()
	if !ok {
		return dst, false
	}
	dst = strconv.AppendInt(append(dst, "pipe/f"...), int64(f), 10)
	dst = strconv.AppendInt(append(dst, "/b"...), int64(b), 10)
	dst = strconv.AppendInt(append(dst, "/d"...), int64(d), 10)
	return dst, true
}

// split returns the core counts of a canonical three-way split
// (PipelinedSplit), or false for any other layout.
func (l Layout) split() (f, b, d int, ok bool) {
	fLo, f, fOK := l.FFT.asRange()
	bLo, b, bOK := l.BF.asRange()
	dLo, d, dOK := l.CHE.asRange()
	ok = fOK && bOK && dOK &&
		slices.Equal(l.CHE, l.NE) && slices.Equal(l.CHE, l.MIMO) &&
		fLo == 0 && bLo == f && dLo == f+b
	return f, b, d, ok
}

// Wire returns the replayable wire form of the layout, failing for
// hand-built partition sets the canonical forms cannot express (like
// sched's specCluster, emitting an unparseable coordinate would be
// worse than refusing).
func (l Layout) Wire() (string, error) {
	s := l.String()
	if s == "pipe/custom" {
		return "", fmt.Errorf("pusch: layout %v is not a canonical split; wire streams carry only sequential or pipe/f<F>/b<B>/d<D> layouts", []CoreSet{l.FFT, l.BF, l.CHE, l.NE, l.MIMO})
	}
	return s, nil
}

// ParseLayout resolves a layout name against a cluster: "" / "seq" /
// "sequential" is the sequential layout, "pipe" / "pipelined" the stock
// partitioned layout for that cluster, and "pipe/f<F>/b<B>/d<D>" an
// explicit three-way split (e.g. "pipe/f64/b32/d64").
func ParseLayout(name string, cluster *arch.Config) (Layout, error) {
	switch strings.ToLower(name) {
	case "", "seq", "sequential":
		return Sequential, nil
	case "pipe", "pipelined":
		return StockPipelined(cluster), nil
	}
	parts := strings.Split(strings.ToLower(name), "/")
	if len(parts) == 4 && parts[0] == "pipe" {
		sizes := make([]int, 3)
		for i, prefix := range []string{"f", "b", "d"} {
			tok := parts[i+1]
			if !strings.HasPrefix(tok, prefix) {
				return Layout{}, fmt.Errorf("pusch: layout %q: want %s<cores> at position %d", name, prefix, i+1)
			}
			n, err := strconv.Atoi(tok[1:])
			if err != nil {
				return Layout{}, fmt.Errorf("pusch: layout %q: %s is not a core count", name, tok)
			}
			sizes[i] = n
		}
		return PipelinedSplit(cluster, sizes[0], sizes[1], sizes[2])
	}
	return Layout{}, fmt.Errorf("pusch: unknown layout %q (want sequential, pipe, or pipe/f<F>/b<B>/d<D>)", name)
}

// validate checks a pipelined layout against the cluster and the FFT's
// lane demand: all five stages assigned, cores in range and unique
// within a set, distinct partitions disjoint (element-wise equal sets
// are one shared partition), no partition shared by stages that run in
// the same pipeline beat, and the FFT partition able to host at least
// one NSC-point transform.
func (l Layout) validate(cluster *arch.Config, nsc int) error {
	if !l.Pipelined() {
		return nil
	}
	// task numbers the concurrent jobs of one pipeline beat: a single
	// Machine.Run executes FFT(k) (1), BF(k-1) (2) and the detection of
	// k-2 (3, chest or MIMO), so stages of different tasks must not share
	// a partition. The noise combine (0) runs alone and may share any.
	parts := [...]struct {
		name string
		set  CoreSet
		task int
	}{
		{"fft", l.FFT, 1}, {"bf", l.BF, 2}, {"che", l.CHE, 3}, {"ne", l.NE, 0}, {"mimo", l.MIMO, 3},
	}
	// owner maps a core to 1 + the index of the partition claiming it;
	// both reference clusters fit the stack array.
	var stack [1024]int8
	var owner []int8
	if n := cluster.NumCores(); n <= len(stack) {
		owner = stack[:n]
	} else {
		owner = make([]int8, n)
	}
next:
	for i, p := range parts {
		if len(p.set) == 0 {
			return fmt.Errorf("pusch: pipelined layout leaves stage %s without cores", p.name)
		}
		for _, q := range parts[:i] {
			if slices.Equal(q.set, p.set) {
				if q.task != 0 && p.task != 0 && q.task != p.task {
					return fmt.Errorf("pusch: layout stages %s and %s share a partition but run in the same pipeline beat", q.name, p.name)
				}
				continue next // shared partition, already accounted
			}
		}
		for _, c := range p.set {
			if c < 0 || c >= len(owner) {
				return fmt.Errorf("pusch: layout stage %s: core %d out of range [0,%d)", p.name, c, len(owner))
			}
			switch prev := owner[c] - 1; {
			case prev == int8(i):
				return fmt.Errorf("pusch: layout stage %s lists core %d twice", p.name, c)
			case prev >= 0:
				return fmt.Errorf("pusch: layout partitions %s and %s both claim core %d (distinct partitions must be disjoint)", parts[prev].name, p.name, c)
			}
			owner[c] = int8(i + 1)
		}
	}
	if lanes := nsc / 16; len(l.FFT) < lanes {
		return fmt.Errorf("pusch: one %d-point FFT needs %d lanes, layout FFT partition has %d cores", nsc, lanes, len(l.FFT))
	}
	return nil
}
