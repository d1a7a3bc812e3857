// Package mc is the memory-controller model: physical address mapping,
// per-channel request queues, scheduling policies (FCFS, FR-FCFS, BLISS),
// page policies (open, closed, minimalist-open), the RAA counters and RFM
// issue logic of Figure 1, ARR injection for MC-side mitigations, and the
// throttling/skip hooks that BlockHammer and Mithril+ need.
package mc

import (
	"fmt"
	"math/bits"

	"mithril/internal/timing"
)

// Location is a fully decoded DRAM coordinate.
type Location struct {
	Channel int
	Rank    int
	Bank    int // bank index within the rank
	Row     int
	Column  int
	// GlobalBank is the device-wide bank index used by dram.Device.
	GlobalBank int
}

// AddressMapper translates between physical byte addresses and DRAM
// coordinates. The layout (from LSB): cache-line offset, channel, column,
// bank, rank, row — sequential cache lines interleave across channels, then
// walk a row, preserving row-buffer locality for streaming access while
// spreading load over banks at row granularity.
type AddressMapper struct {
	p timing.Params

	lineBits, chBits, colBits, bankBits, rankBits, rowBits int

	// Precomputed field masks and the rank/bank fan-out, so the per-request
	// decode is pure shift/mask/multiply-add without rebuilding constants.
	chMask, colMask, bankMask, rankMask, rowMask uint64
	ranks, banks                                 int
}

// LineSize is the cache line (and DRAM access) granularity in bytes.
const LineSize = 64

// NewAddressMapper builds the mapper for a parameter set. Organization
// fields must be powers of two.
func NewAddressMapper(p timing.Params) *AddressMapper {
	m := &AddressMapper{p: p, lineBits: bits.TrailingZeros(uint(LineSize))}
	for _, f := range []struct {
		name string
		v    int
		dst  *int
	}{
		{"Channels", p.Channels, &m.chBits},
		{"ColumnsPerRow", p.ColumnsPerRow, &m.colBits},
		{"Banks", p.Banks, &m.bankBits},
		{"Ranks", p.Ranks, &m.rankBits},
		{"Rows", p.Rows, &m.rowBits},
	} {
		if f.v&(f.v-1) != 0 {
			panic(fmt.Sprintf("mc: %s = %d must be a power of two", f.name, f.v))
		}
		*f.dst = bits.TrailingZeros(uint(f.v))
	}
	m.chMask = 1<<uint(m.chBits) - 1
	m.colMask = 1<<uint(m.colBits) - 1
	m.bankMask = 1<<uint(m.bankBits) - 1
	m.rankMask = 1<<uint(m.rankBits) - 1
	m.rowMask = 1<<uint(m.rowBits) - 1
	m.ranks, m.banks = p.Ranks, p.Banks
	return m
}

// Map decodes a physical byte address.
//
//mithril:hotpath
func (m *AddressMapper) Map(addr uint64) Location {
	var loc Location
	m.MapInto(addr, &loc)
	return loc
}

// MapInto decodes a physical byte address directly into loc, sparing the
// per-request Location copy that returning by value would cost on the
// enqueue path.
//
//mithril:hotpath
func (m *AddressMapper) MapInto(addr uint64, loc *Location) {
	a := addr >> uint(m.lineBits)
	ch := int(a & m.chMask)
	a >>= uint(m.chBits)
	col := int(a & m.colMask)
	a >>= uint(m.colBits)
	bank := int(a & m.bankMask)
	a >>= uint(m.bankBits)
	rank := int(a & m.rankMask)
	a >>= uint(m.rankBits)
	row := int(a & m.rowMask)
	*loc = Location{Channel: ch, Rank: rank, Bank: bank, Row: row, Column: col,
		GlobalBank: (ch*m.ranks+rank)*m.banks + bank}
}

// Compose builds the physical byte address for a coordinate (the inverse of
// Map); attack generators use it to aim at specific rows.
func (m *AddressMapper) Compose(loc Location) uint64 {
	a := uint64(loc.Row)
	a = a<<uint(m.rankBits) | uint64(loc.Rank)
	a = a<<uint(m.bankBits) | uint64(loc.Bank)
	a = a<<uint(m.colBits) | uint64(loc.Column)
	a = a<<uint(m.chBits) | uint64(loc.Channel)
	return a << uint(m.lineBits)
}

// AddressSpace is the total number of bytes the mapper covers; addresses are
// taken modulo this size.
func (m *AddressMapper) AddressSpace() uint64 {
	total := m.lineBits + m.chBits + m.colBits + m.bankBits + m.rankBits + m.rowBits
	return 1 << uint(total)
}

// Params returns the mapper's parameter set.
func (m *AddressMapper) Params() timing.Params { return m.p }
