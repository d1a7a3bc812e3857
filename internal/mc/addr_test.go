package mc

import (
	"testing"
	"testing/quick"

	"mithril/internal/timing"
)

func TestAddressMapRoundTrip(t *testing.T) {
	m := NewAddressMapper(timing.DDR5())
	f := func(raw uint64) bool {
		addr := (raw << 6) % m.AddressSpace() // line-aligned, in range
		loc := m.Map(addr)
		return m.Compose(loc) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddressMapDecodesFields(t *testing.T) {
	m := NewAddressMapper(timing.DDR5())
	loc := m.Map(0)
	if loc != (Location{}) {
		t.Fatalf("address 0 should decode to the origin, got %+v", loc)
	}
	// Consecutive cache lines alternate channels (2 channels).
	a, b := m.Map(0), m.Map(64)
	if a.Channel == b.Channel {
		t.Fatal("adjacent lines should interleave across channels")
	}
	// Lines within a row share bank and row.
	c, d := m.Map(0), m.Map(256)
	if c.Row != d.Row || c.GlobalBank != d.GlobalBank {
		t.Fatal("row-local lines should share bank and row")
	}
}

func TestComposeTargetsRow(t *testing.T) {
	m := NewAddressMapper(timing.DDR5())
	loc := Location{Channel: 1, Rank: 0, Bank: 7, Row: 12345, Column: 3}
	got := m.Map(m.Compose(loc))
	if got.Channel != 1 || got.Bank != 7 || got.Row != 12345 || got.Column != 3 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.GlobalBank != (1*timing.DDR5().Ranks+0)*timing.DDR5().Banks+7 {
		t.Fatalf("global bank = %d", got.GlobalBank)
	}
}

func TestMapperRejectsNonPowerOfTwo(t *testing.T) {
	p := timing.DDR5()
	p.Banks = 24
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two organization should panic")
		}
	}()
	NewAddressMapper(p)
}

// One row of one channel holds 128 columns of 64-byte lines: 8 KB, each
// line at its own address.
func TestRowBytes(t *testing.T) {
	m := NewAddressMapper(timing.DDR5())
	lines := map[uint64]bool{}
	for col := 0; col < m.Params().ColumnsPerRow; col++ {
		loc := Location{Row: 5, Column: col}
		addr := m.Compose(loc)
		if got := m.Map(addr); got.Row != 5 || got.Column != col || got.Channel != 0 {
			t.Fatalf("column %d: Map(Compose) = %+v", col, got)
		}
		lines[addr] = true
	}
	if got := len(lines) * LineSize; got != 128*64 {
		t.Fatalf("one row covers %d bytes, want 8KB", got)
	}
}
