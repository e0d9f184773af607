package arch

import "fmt"

// The cluster memory map (Fig. 4b of the paper) interleaves consecutive
// word addresses across the banks of one tile, consecutive tile-sized
// blocks across the 16 tiles of a group, and consecutive group-sized
// blocks across the groups, before wrapping to the next word row:
//
//	word address a:
//	  bank-in-tile = a % BanksPerTile
//	  tile-in-group = (a / BanksPerTile) % TilesPerGroup
//	  group        = (a / (BanksPerTile*TilesPerGroup)) % Groups
//	  row          = a / (BanksPerTile*TilesPerGroup*Groups)
//
// so a sequential buffer "unrolls over the whole memory" exactly as the
// paper describes, while a fixed (group, tile) with varying (bank, row)
// spans one tile's local banks.

// Place identifies the physical home of one word: its global bank and the
// row within that bank.
type Place struct {
	Group      int
	TileInGrp  int
	BankInTile int
	Row        int
}

// Decompose splits a word address into its physical coordinates.
func (c *Config) Decompose(a Addr) Place {
	bpt := Addr(c.BanksPerTile())
	tpg := Addr(c.TilesPerGroup)
	g := Addr(c.Groups)
	return Place{
		BankInTile: int(a % bpt),
		TileInGrp:  int((a / bpt) % tpg),
		Group:      int((a / (bpt * tpg)) % g),
		Row:        int(a / (bpt * tpg * g)),
	}
}

// Compose is the inverse of Decompose. It panics if any coordinate is out
// of range, since that indicates a programming error in kernel layout code.
func (c *Config) Compose(p Place) Addr {
	if p.BankInTile < 0 || p.BankInTile >= c.BanksPerTile() ||
		p.TileInGrp < 0 || p.TileInGrp >= c.TilesPerGroup ||
		p.Group < 0 || p.Group >= c.Groups ||
		p.Row < 0 || p.Row >= c.BankWords {
		panic(fmt.Sprintf("arch: Compose out of range: %+v on %s", p, c.Name))
	}
	bpt := c.BanksPerTile()
	stride := bpt * c.TilesPerGroup * c.Groups // words per row across the cluster
	return Addr(p.Row*stride + p.Group*bpt*c.TilesPerGroup + p.TileInGrp*bpt + p.BankInTile)
}

// BankOf returns the global bank index [0, NumBanks) of a word address.
func (c *Config) BankOf(a Addr) int {
	p := c.Decompose(a)
	return (p.Group*c.TilesPerGroup+p.TileInGrp)*c.BanksPerTile() + p.BankInTile
}

// TileOf returns the global tile index [0, NumTiles) of a word address.
func (c *Config) TileOf(a Addr) int {
	p := c.Decompose(a)
	return p.Group*c.TilesPerGroup + p.TileInGrp
}

// LevelFor classifies the distance of an access from core to address a.
func (c *Config) LevelFor(core int, a Addr) Level {
	p := c.Decompose(a)
	tile := p.Group*c.TilesPerGroup + p.TileInGrp
	switch {
	case tile == c.TileOfCore(core):
		return LevelLocal
	case p.Group == c.GroupOfCore(core):
		return LevelGroup
	default:
		return LevelRemote
	}
}

// RowStride is the address increment that advances one row while staying
// in the same bank.
func (c *Config) RowStride() Addr {
	return Addr(c.BanksPerTile() * c.TilesPerGroup * c.Groups)
}

// TileLocalAddr returns the address of the word at (bank, row) inside the
// given global tile. It is the primitive used by tile-local data layouts
// such as the folded FFT buffers.
func (c *Config) TileLocalAddr(tile, bankInTile, row int) Addr {
	g := tile / c.TilesPerGroup
	t := tile % c.TilesPerGroup
	return c.Compose(Place{Group: g, TileInGrp: t, BankInTile: bankInTile, Row: row})
}
