// Package tcdm models the cluster's tightly-coupled data memory: the
// word-addressed banked storage, arena allocators for the two layout
// families the kernels use (sequential-interleaved and tile-local), and
// per-bank cycle-reservation tables that resolve bank contention.
//
// Each bank serves one access per cycle. The engine replays the cores in
// core-ID order, so reservation implements a fixed-priority arbiter:
// core i never waits for core j > i. Under the paper's conflict-free data
// placements this coincides with MemPool's round-robin arbiter (see
// docs/ARCHITECTURE.md, "Bank arbitration").
package tcdm

import "math/bits"

// pageBits is log2 of the cycles covered by one reservation page.
const pageBits = 12 // 4096 cycles per page

const pageWords = 1 << (pageBits - 6) // uint64 words per page

type page [pageWords]uint64

// pageSlot is one entry of a bank's open-addressed page ring: the page
// index it currently holds plus the epoch labels deciding whether that
// content is still meaningful. A slot whose labels are stale is storage
// waiting to be recycled, not state — Reset and Retire never touch it.
type pageSlot struct {
	idx int64 // page index (cycle >> pageBits) the slot holds
	gen uint32
	seq uint32
	p   *page
}

// bankRes tracks the busy cycles of one bank as pages hung off a small
// power-of-two ring indexed by page index. Pages of one bank cluster
// tightly in time (the engine retires everything behind the slowest
// core at each barrier), so the ring stays tiny; it doubles on the rare
// collision between two live pages. The first ringSlots entries live
// inline in the struct — the hot lookup computes the slot address from
// the bank index alone, with no pointer chase — and only a grown ring
// spills to the ext slice.
type bankRes struct {
	mask int64
	// logHi bounds the bank's cycles in the frontier log from above
	// while logEpoch matches the reservation's epoch; otherwise the bank
	// has nothing logged.
	logHi    int64
	logEpoch uint32
	ext      []pageSlot // nil while the inline ring suffices
	ring     [ringSlots]pageSlot
}

// slot returns the ring slot for page idx.
func (b *bankRes) slot(idx int64) *pageSlot {
	if b.ext == nil {
		return &b.ring[idx&(ringSlots-1)]
	}
	return &b.ext[idx&b.mask]
}

// all returns the current ring storage (for growth scans).
func (b *bankRes) all() []pageSlot {
	if b.ext == nil {
		return b.ring[:]
	}
	return b.ext
}

// Reservation resolves bank contention for a whole cluster.
//
// Instead of allocating and freeing page maps, the table is epoch-based:
// Reset bumps a generation counter (gen) that invalidates every page in
// O(1), and Retire bumps a retire sequence (seq) plus a page-index
// cutoff that invalidates old pages in O(1). Page storage is recycled
// in place the next time its ring slot is claimed, so steady-state
// operation — including Machine.Reset between runs and barrier
// retirement inside runs — performs no allocation at all.
//
// A request whose page is not live and that lies above every cycle its
// bank has in the frontier log cannot conflict: it is appended to the
// log and no page is claimed. The log is flushed into pages before any
// other page claim or bitmap scan, before Retire changes the liveness
// labels, and before Busy reads the bitmaps, so logged bookings only
// ever target pages that are not live, every live bitmap is complete,
// and every answer — and every page label — is the one an eager table
// would give. A single core's requests to one bank strictly increase, so
// a serial stream never leaves the log: it pays 8 bytes per access
// instead of a 512-byte page.
type Reservation struct {
	banks []bankRes

	// gen labels the current Reset epoch: pages claimed under an older
	// gen read as empty.
	gen uint32
	// seq labels the current Retire window and cutoff is the first live
	// page index: a page below the cutoff claimed under an older seq
	// reads as empty (exactly the pages the map-based table deleted).
	// Retire cutoffs must be non-decreasing within one epoch, which the
	// engine guarantees (per-core clocks only move forward).
	seq    uint32
	cutoff int64

	// free recycles page arrays displaced by ring growth.
	free []*page

	// log holds frontier bookings not yet written to pages, each packed
	// as bank<<logCycleBits | cycle. Its storage survives Reset. epoch
	// labels the log's contents: it advances whenever the log empties.
	log   []int64
	epoch uint32

	conflicts int64 // total cycles of delay handed out
	accesses  int64
}

// ringSlots is the initial per-bank ring size; it covers a span of
// ringSlots<<pageBits unretired cycles before the first growth.
const ringSlots = 4

// logCycleBits is the width of the cycle field of a log entry; bookings
// at later cycles (beyond any realistic run) claim their page directly.
const logCycleBits = 40

// NewReservation creates tables for nBanks banks. The log starts with
// room for one booking per bank, so a fresh table does not grow it step
// by step through its first phase.
func NewReservation(nBanks int) *Reservation {
	r := &Reservation{banks: make([]bankRes, nBanks), log: make([]int64, 0, nBanks), epoch: 1}
	for i := range r.banks {
		r.banks[i].mask = ringSlots - 1
	}
	return r
}

// Reset invalidates every reservation and zeroes the contention
// counters in O(1), returning the table to its just-constructed state
// without touching any page. Machine reuse depends on this being cheap:
// the arena alone is multi-MiB, and page content is lazily cleared only
// when its slot is claimed again.
func (r *Reservation) Reset() {
	r.gen++
	r.truncateLog()
	r.seq = 0
	r.cutoff = 0
	r.conflicts = 0
	r.accesses = 0
}

// live reports whether a slot's content is meaningful under the current
// epoch labels.
func (r *Reservation) live(s *pageSlot) bool {
	return s.p != nil && s.gen == r.gen && (s.idx >= r.cutoff || s.seq == r.seq)
}

// lookup returns the live page idx of bank b, or nil.
func (r *Reservation) lookup(b *bankRes, idx int64) *page {
	if s := b.slot(idx); s.idx == idx && r.live(s) {
		return s.p
	}
	return nil
}

// pageFor returns the live page idx of bank b, claiming it if needed.
func (r *Reservation) pageFor(b *bankRes, idx int64) *page {
	if p := r.lookup(b, idx); p != nil {
		return p
	}
	return r.claimPage(b, idx)
}

// flush writes the logged bookings whose page index is at least from
// into pages and empties the log; entries below from are dropped.
func (r *Reservation) flush(from int64) {
	for _, e := range r.log {
		t := e & (1<<logCycleBits - 1)
		if idx := t >> pageBits; idx >= from {
			off := t & (1<<pageBits - 1)
			r.pageFor(&r.banks[e>>logCycleBits], idx)[off>>6] |= 1 << uint(off&63)
		}
	}
	r.truncateLog()
}

// truncateLog empties the log; a new epoch disowns every bank's logHi.
func (r *Reservation) truncateLog() {
	if len(r.log) > 0 {
		r.log = r.log[:0]
		r.epoch++
	}
}

// claimPage returns cleared page storage for page idx of bank b,
// recycling the ring slot in place (growing the ring only when the slot
// holds a different page that is still live).
func (r *Reservation) claimPage(b *bankRes, idx int64) *page {
	s := b.slot(idx)
	if r.live(s) && s.idx != idx {
		b.grow(r, idx)
		s = b.slot(idx)
	}
	if s.p == nil {
		if n := len(r.free); n > 0 {
			s.p = r.free[n-1]
			r.free = r.free[:n-1]
			*s.p = page{}
		} else {
			s.p = new(page)
		}
	} else {
		*s.p = page{}
	}
	s.idx, s.gen, s.seq = idx, r.gen, r.seq
	return s.p
}

// grow doubles the ring until every live page plus the incoming index
// lands in a distinct slot, recycling the storage of stale pages.
func (b *bankRes) grow(r *Reservation, newIdx int64) {
	var keep []pageSlot
	cur := b.all()
	for i := range cur {
		s := &cur[i]
		if s.p == nil {
			continue
		}
		if r.live(s) {
			keep = append(keep, *s)
		} else {
			r.free = append(r.free, s.p)
		}
		*s = pageSlot{}
	}
	size := 2 * len(cur)
	for {
		mask := int64(size - 1)
		slots := make([]pageSlot, size)
		ok := true
		for _, s := range keep {
			j := s.idx & mask
			if slots[j].p != nil {
				ok = false
				break
			}
			slots[j] = s
		}
		if ok && slots[newIdx&mask].p == nil {
			b.ext, b.mask = slots, mask
			return
		}
		size *= 2
	}
}

// Acquire books the first free service cycle >= t on the given bank and
// returns it. The difference between the returned cycle and t is the
// conflict delay suffered by this access.
func (r *Reservation) Acquire(bank int, t int64) int64 {
	if t < 0 {
		t = 0
	}
	b := &r.banks[bank]
	r.accesses++
	idx := t >> pageBits
	p := r.lookup(b, idx)
	if p == nil {
		if (b.logEpoch != r.epoch || t > b.logHi) && t < 1<<logCycleBits {
			// Nothing live on this page and nothing logged at or after
			// t on this bank, so t is free: log it.
			b.logHi, b.logEpoch = t, r.epoch
			r.log = append(r.log, int64(bank)<<logCycleBits|t)
			return t
		}
		r.flush(0)
		p = r.pageFor(b, idx)
	}
	off := t & (1<<pageBits - 1)
	w := off >> 6
	bit := uint(off & 63)
	// Uncontended fast path: the requested cycle itself is free.
	if p[w]&(1<<bit) == 0 {
		p[w] |= 1 << bit
		return t
	}
	// Scan word by word, page by page, for the first free bit. Later
	// pages may have logged bookings, so flush first.
	if len(r.log) > 0 {
		r.flush(0)
	}
	for {
		for ; w < pageWords; w, bit = w+1, 0 {
			if free := ^p[w] >> bit << bit; free != 0 { // bits below the start masked off
				pos := int64(bits.TrailingZeros64(free))
				p[w] |= 1 << uint(pos)
				slot := idx<<pageBits | w<<6 | pos
				r.conflicts += slot - t
				return slot
			}
		}
		// Page exhausted: continue at the start of the next page.
		idx++
		p = r.pageFor(b, idx)
		w = 0
	}
}

// Busy reports whether cycle t is already booked on bank (test helper).
func (r *Reservation) Busy(bank int, t int64) bool {
	r.flush(0)
	p := r.lookup(&r.banks[bank], t>>pageBits)
	if p == nil {
		return false
	}
	off := t & (1<<pageBits - 1)
	return p[off>>6]&(1<<uint(off&63)) != 0
}

// Retire drops all reservation pages that end strictly before cycle t.
// The engine calls it at cluster-wide barriers to bound memory use.
// Within one epoch its cutoffs must be non-decreasing; the engine
// derives them from the slowest core's clock, which only moves forward.
//
// Logged bookings are flushed under the old labels first, exactly as if
// they had been written eagerly; those below the new cutoff would be
// dead after the bump, so they are dropped instead.
func (r *Reservation) Retire(t int64) {
	cutoff := max(r.cutoff, t>>pageBits) // pages with idx < cutoff end before t
	r.flush(cutoff)
	r.seq++
	r.cutoff = cutoff
}

// ConflictCycles returns the total delay (in bank-cycles) attributed to
// contention since creation.
func (r *Reservation) ConflictCycles() int64 { return r.conflicts }

// Accesses returns the total number of bank accesses booked.
func (r *Reservation) Accesses() int64 { return r.accesses }
