package tcdm

import (
	"math/bits"
	"math/rand/v2"
	"testing"

	"repro/internal/arch"
)

// refPage is one bank page of the reference model: the retire sequence
// it was claimed under and the cycles booked in it.
type refPage struct {
	seq    uint32
	booked map[int64]bool
}

// refReservation is the plain reference the paged table must match:
// booked cycles in maps, with the page-level liveness rule of Retire and
// Reset (a page below the cutoff survives only until the next Retire
// after its claim) applied eagerly on every lookup.
type refReservation struct {
	pages               map[[2]int64]*refPage // (bank, page index)
	seq                 uint32
	cutoff              int64
	conflicts, accesses int64
}

func newRefReservation() *refReservation {
	return &refReservation{pages: make(map[[2]int64]*refPage)}
}

func (m *refReservation) page(bank int, t int64) *refPage {
	idx := t >> pageBits
	p := m.pages[[2]int64{int64(bank), idx}]
	if p == nil || (idx < m.cutoff && p.seq != m.seq) {
		return nil
	}
	return p
}

func (m *refReservation) Busy(bank int, t int64) bool {
	p := m.page(bank, t)
	return p != nil && p.booked[t]
}

func (m *refReservation) Acquire(bank int, t int64) int64 {
	t = max(t, 0)
	m.accesses++
	slot := t
	for m.Busy(bank, slot) {
		slot++
	}
	p := m.page(bank, slot)
	if p == nil {
		p = &refPage{seq: m.seq, booked: make(map[int64]bool)}
		m.pages[[2]int64{int64(bank), slot >> pageBits}] = p
	}
	p.booked[slot] = true
	m.conflicts += slot - t
	return slot
}

func (m *refReservation) Retire(t int64) {
	m.seq++
	m.cutoff = max(m.cutoff, t>>pageBits)
}

func (m *refReservation) Reset() { *m = *newRefReservation() }

// runReservationProgram decodes prog, four bytes per operation, into a
// program over nBanks banks and runs it on a fresh Reservation and the
// reference side by side, failing on the first differing answer. The
// operations mix single-core monotone streams (which book above every
// frontier), multi-lane replays of one phase (lanes after the first go
// back in time, and the phase itself may lie behind a Retire), isolated
// accesses around a moving cursor, time jumps across pages, Retire,
// Reset and Busy probes.
func runReservationProgram(t *testing.T, nBanks int, prog []byte) {
	t.Helper()
	r, ref := NewReservation(nBanks), newRefReservation()
	acquire := func(bank int, at int64) {
		got, want := r.Acquire(bank, at), ref.Acquire(bank, at)
		if got != want {
			t.Fatalf("Acquire(%d, %d) = %d, reference %d", bank, at, got, want)
		}
	}
	var now int64
	for ; len(prog) >= 4; prog = prog[4:] {
		kind, a, b, c := prog[0]%8, int64(prog[1]), int64(prog[2]), int64(prog[3])
		switch kind {
		case 0, 1: // single-core monotone stream
			bank, stride := int(b)%nBanks, int(c%5)+1
			step := int64(1)
			if kind == 1 {
				step = 1 << (c % 13) // sparse: every access in a new page
			}
			for i := int64(0); i <= a%48; i++ {
				acquire(bank, now)
				bank = (bank + stride) % nBanks
				now += step + i%3
			}
		case 2: // multi-lane replay of one phase, possibly long past
			lanes, n, spread := int(a%4)+2, b%24+1, int(c%7)+1
			start := now - (c>>3)<<((a>>2)%14)
			for l := 0; l < lanes; l++ {
				for k := int64(0); k < n; k++ {
					acquire((l*spread+int(k))%nBanks, start+k+int64(l%2))
				}
			}
			now = max(now, start+n+int64(lanes))
		case 3: // isolated access around the cursor, possibly before 0
			acquire(int(c)%nBanks, now+a-128)
		case 4: // jump the cursor forward
			now += a << (b % 14)
		case 5:
			at := now - a<<(b%13)
			r.Retire(at)
			ref.Retire(at)
		case 6:
			if a%4 == 0 {
				r.Reset()
				ref.Reset()
				now = 0
			}
		case 7:
			bank, at := int(a)%nBanks, now-b<<(c%12)
			if got, want := r.Busy(bank, at), ref.Busy(bank, at); got != want {
				t.Fatalf("Busy(%d, %d) = %v, reference %v", bank, at, got, want)
			}
		}
		if r.ConflictCycles() != ref.conflicts || r.Accesses() != ref.accesses {
			t.Fatalf("ConflictCycles/Accesses = %d/%d, reference %d/%d",
				r.ConflictCycles(), r.Accesses(), ref.conflicts, ref.accesses)
		}
	}
}

// TestReservationMatchesReference drives the paged table with its
// frontier log and the map reference through seeded random programs:
// every returned slot, Busy answer and counter must agree.
func TestReservationMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		prog := make([]byte, 4*400)
		for i := range prog {
			prog[i] = byte(rng.Uint32())
		}
		nBanks := []int{1, 3, 16, 64}[seed%4]
		runReservationProgram(t, nBanks, prog)
	}
}

// TestReservationLogChunks drives one core's stream across several
// frontier-log chunk boundaries, with a Retire and a Reset partway, and
// checks every Acquire answer against the eagerly paged reference. Each
// time the log holds several chunks, every Busy bit of the stream so far
// is checked too, which flushes the chunks in order. Emptied chunks are
// reused, not reallocated.
func TestReservationLogChunks(t *testing.T) {
	const nBanks = 8
	r, ref := NewReservation(nBanks), newRefReservation()
	var now int64
	stream := func(n int) {
		for i := range n {
			bank := i % nBanks
			if got, want := r.Acquire(bank, now), ref.Acquire(bank, now); got != want {
				t.Fatalf("Acquire(%d, %d) = %d, reference %d", bank, now, got, want)
			}
			now++
		}
	}
	busy := func(where string) {
		for at := int64(0); at < now; at++ {
			for bank := range nBanks {
				if got, want := r.Busy(bank, at), ref.Busy(bank, at); got != want {
					t.Fatalf("%s: Busy(%d, %d) = %v, reference %v", where, bank, at, got, want)
				}
			}
		}
	}
	// chunks checks the chunk count and how many bookings are logged.
	chunks := func(where string, want, logged int) {
		if len(r.log) != want || r.logLen != logged {
			t.Fatalf("%s: %d bookings in %d log chunks, want %d in %d", where, r.logLen, len(r.log), logged, want)
		}
	}

	stream(2*logChunk + logChunk/2)
	chunks("first stream", 3, 2*logChunk+logChunk/2)
	busy("first stream")
	stream(logChunk + 100)
	chunks("second stream", 3, logChunk+100)
	at := now - logChunk/2 // drops the older logged bookings
	r.Retire(at)
	ref.Retire(at)
	chunks("after Retire", 3, 0)
	busy("after Retire")
	stream(3*logChunk + logChunk/2) // less one page that Retire left live
	if len(r.log) != 4 {
		t.Fatalf("after Retire: %d log chunks, want 4", len(r.log))
	}
	r.Reset()
	ref.Reset()
	now = 0
	chunks("after Reset", 4, 0)
	stream(2*logChunk + 1)
	chunks("after Reset", 4, 2*logChunk+1)
	busy("after Reset")
}

// TestSerialStreamAllocsLogarithmic pins the frontier log's purpose: one
// core streaming 10⁶ accesses round-robin over 4096 banks never revisits
// a bank within a page, yet must allocate only for the log's chunks, not
// one 512-byte page per access.
func TestSerialStreamAllocsLogarithmic(t *testing.T) {
	const n, nBanks = 1_000_000, 4096
	var conflicts int64
	avg := testing.AllocsPerRun(1, func() {
		r := NewReservation(nBanks)
		for i := 0; i < n; i++ {
			r.Acquire(i%nBanks, int64(i))
		}
		conflicts = r.ConflictCycles()
	})
	if conflicts != 0 {
		t.Fatalf("serial stream suffered %d conflict cycles, want 0", conflicts)
	}
	if limit := float64(4 * bits.Len(n)); avg > limit {
		t.Fatalf("%d serial accesses allocate %.0f objects, want <= %.0f", n, avg, limit)
	}
}

// BenchmarkReservationAcquire is the tcdm rung of the layer ladder: host
// ns per bank access (one op = one Acquire) for the two access shapes
// that dominate engine runs.
//
//   - dense: 16 lanes replay one 256-access phase over MemPool's banks
//     from a common start, with a barrier Retire per phase, as a
//     parallel kernel does.
//   - serial: one core streams round-robin over 4096 banks on a fresh
//     table every 2¹⁶ accesses, as a serial baseline on a fresh machine
//     does.
func BenchmarkReservationAcquire(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		const lanes, perLane = 16, 256
		nBanks := arch.MemPool().NumBanks()
		rng := rand.New(rand.NewPCG(1, 2))
		prog := make([]int, lanes*perLane)
		for i := range prog {
			prog[i] = rng.IntN(nBanks)
		}
		r := NewReservation(nBanks)
		var start int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(prog)
			if j == 0 && i > 0 {
				start += perLane + 64
				r.Retire(start - 1<<13)
			}
			r.Acquire(prog[j], start+int64(j%perLane))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
	})
	b.Run("serial", func(b *testing.B) {
		const nBanks, stream = 4096, 1 << 16
		var r *Reservation
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % stream
			if j == 0 {
				r = NewReservation(nBanks)
			}
			r.Acquire(j%nBanks, int64(j))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
	})
}
