package tcdm

import (
	"fmt"

	"repro/internal/arch"
)

// Mem is one cluster's L1 data memory: flat word storage addressed through
// the interleaved map of arch.Config, plus the two arena allocators the
// kernels use for data placement.
//
// Sequential allocations grow upward from row 0 and spread across all
// banks of the cluster ("the input vector unrolls over the whole memory").
// Tile-local allocations grow downward from the last row of one tile's
// banks and are what the folded FFT and Cholesky layouts use to guarantee
// 1-cycle accesses. The allocator refuses to let the two regions overlap.
type Mem struct {
	Cfg *arch.Config
	Res *Reservation

	data []uint32
	// seqNext is the next unallocated word address for sequential data.
	seqNext arch.Addr
	// localFloor[tile] is the lowest row already claimed by tile-local
	// allocations in that tile (allocations grow downward from BankWords).
	localFloor []int
}

// NewMem allocates the memory model for a cluster configuration.
func NewMem(cfg *arch.Config) *Mem {
	m := &Mem{
		Cfg:        cfg,
		Res:        NewReservation(cfg.NumBanks()),
		data:       make([]uint32, cfg.MemWords()),
		localFloor: make([]int, cfg.NumTiles()),
	}
	for i := range m.localFloor {
		m.localFloor[i] = cfg.BankWords
	}
	return m
}

// Read returns the word at address a.
func (m *Mem) Read(a arch.Addr) uint32 { return m.data[a] }

// Write stores the word at address a.
func (m *Mem) Write(a arch.Addr, v uint32) { m.data[a] = v }

// seqRows returns the number of rows (from row 0) the sequential arena
// has consumed in every tile.
func (m *Mem) seqRows() int {
	perRow := arch.Addr(m.Cfg.NumBanks())
	return int((m.seqNext + perRow - 1) / perRow)
}

// AllocSeq reserves n sequentially-addressed words spread across the
// whole cluster and returns the base address.
func (m *Mem) AllocSeq(n int) (arch.Addr, error) {
	if n < 0 {
		return 0, fmt.Errorf("tcdm: AllocSeq(%d): negative size", n)
	}
	base := m.seqNext
	end := base + arch.Addr(n)
	if int(end) > m.Cfg.MemWords() {
		return 0, fmt.Errorf("tcdm: AllocSeq(%d): out of memory (%d of %d words used)", n, base, m.Cfg.MemWords())
	}
	newRows := int((end + arch.Addr(m.Cfg.NumBanks()) - 1) / arch.Addr(m.Cfg.NumBanks()))
	for tile, floor := range m.localFloor {
		if newRows > floor {
			return 0, fmt.Errorf("tcdm: AllocSeq(%d): sequential arena (row %d) would collide with tile-local arena of tile %d (floor %d)", n, newRows, tile, floor)
		}
	}
	m.seqNext = end
	return base, nil
}

// TileBlock is a block of rows inside one tile's banks, the unit of
// tile-local allocation. Words are addressed by (bank, row) with
// 0 <= bank < BanksPerTile and 0 <= row < Rows.
type TileBlock struct {
	cfg  *arch.Config
	Tile int
	Row0 int
	Rows int
}

// Addr returns the word address of (bankInTile, row) inside the block.
func (b TileBlock) Addr(bankInTile, row int) arch.Addr {
	if row < 0 || row >= b.Rows {
		panic(fmt.Sprintf("tcdm: TileBlock row %d out of %d", row, b.Rows))
	}
	return b.cfg.TileLocalAddr(b.Tile, bankInTile, b.Row0+row)
}

// WordAddr linearizes the block bank-major: index i maps to bank i %
// BanksPerTile, row i / BanksPerTile. Consecutive indices therefore fall
// in distinct banks of the tile.
func (b TileBlock) WordAddr(i int) arch.Addr {
	bpt := b.cfg.BanksPerTile()
	return b.Addr(i%bpt, i/bpt)
}

// Words returns the block capacity in words.
func (b TileBlock) Words() int { return b.Rows * b.cfg.BanksPerTile() }

// AllocTileLocal reserves rows whole rows in the banks of the given tile,
// growing down from the top of the bank, and returns the block.
func (m *Mem) AllocTileLocal(tile, rows int) (TileBlock, error) {
	if tile < 0 || tile >= m.Cfg.NumTiles() {
		return TileBlock{}, fmt.Errorf("tcdm: AllocTileLocal: tile %d out of range", tile)
	}
	if rows < 0 {
		return TileBlock{}, fmt.Errorf("tcdm: AllocTileLocal(%d rows): negative size", rows)
	}
	newFloor := m.localFloor[tile] - rows
	if newFloor < m.seqRows() {
		return TileBlock{}, fmt.Errorf("tcdm: AllocTileLocal(tile %d, %d rows): collides with sequential arena at row %d", tile, rows, m.seqRows())
	}
	m.localFloor[tile] = newFloor
	return TileBlock{cfg: m.Cfg, Tile: tile, Row0: newFloor, Rows: rows}, nil
}

// Position is where the arenas' next allocations land: the next
// sequential word and the tile-local floor every tile shares. The
// allocators are deterministic, so the same allocation sequence started
// from equal positions returns equal addresses.
type Position struct {
	Seq   arch.Addr
	Floor int
}

// Position returns the arenas' position, or false when the tiles'
// tile-local floors differ and no Position describes them.
func (m *Mem) Position() (Position, bool) {
	floor := m.localFloor[0]
	for _, f := range m.localFloor[1:] {
		if f != floor {
			return Position{}, false
		}
	}
	return Position{Seq: m.seqNext, Floor: floor}, true
}

// Reset releases all allocations, clears contention history and zeroes
// the stored words, returning the memory to its just-constructed state.
// Zeroing matters for reuse: a fresh Mem reads 0 everywhere, and a reused
// one must be indistinguishable from it for runs to be reproducible.
func (m *Mem) Reset() {
	m.seqNext = 0
	for i := range m.localFloor {
		m.localFloor[i] = m.Cfg.BankWords
	}
	m.Res.Reset()
	clear(m.data)
}

// FreeWords reports how many words remain available to AllocSeq assuming
// no further tile-local allocations.
func (m *Mem) FreeWords() int {
	minFloor := m.Cfg.BankWords
	for _, f := range m.localFloor {
		if f < minFloor {
			minFloor = f
		}
	}
	limit := minFloor * m.Cfg.NumBanks()
	return limit - int(m.seqNext)
}
