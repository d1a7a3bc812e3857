// Package attack builds the adversarial access patterns of the evaluation:
// single-, double- and multi-sided RowHammer (Section VI-A's 32-victim
// attack) and the BlockHammer performance-adversarial pattern that
// blacklists benign rows by counting-Bloom-filter collision.
package attack

import (
	"fmt"

	"mithril/internal/mc"
	"mithril/internal/trace"
)

// RowHammer cycles through a set of aggressor rows in one bank at the
// maximum rate the core can sustain (Gap = 0).
type RowHammer struct {
	name   string
	mapper *mc.AddressMapper
	locs   []mc.Location
	cursor int
	col    int
}

var _ trace.Generator = (*RowHammer)(nil)

// Name implements trace.Generator.
func (r *RowHammer) Name() string { return r.name }

// Next implements trace.Generator.
func (r *RowHammer) Next() trace.Access {
	loc := r.locs[r.cursor]
	r.cursor = (r.cursor + 1) % len(r.locs)
	// Walk the column so consecutive hammer reads are not coalesced by the
	// cache; real attacks use CLFLUSH, which the column walk approximates.
	r.col = (r.col + 7) % r.mapper.Params().ColumnsPerRow
	loc.Column = r.col
	// Uncached: RowHammer loops flush their lines (CLFLUSH) so every read
	// reaches DRAM; Serialize: the classic loop is load→flush→load.
	return trace.Access{Gap: 0, Addr: r.mapper.Compose(loc), Serialize: true, Uncached: true}
}

// NewDoubleSided hammers the two rows around one victim.
func NewDoubleSided(mapper *mc.AddressMapper, channel, bank, victimRow int) *RowHammer {
	return newRowAttack("double-sided", mapper, channel, bank, []int{victimRow - 1, victimRow + 1})
}

// NewMultiSided hammers nVictims+1 equally spaced rows so that nVictims
// rows sit between consecutive aggressors — the TRRespass-style multi-sided
// attack (paper default: 32 victims).
func NewMultiSided(mapper *mc.AddressMapper, channel, bank, firstRow, nVictims int) *RowHammer {
	rows := make([]int, nVictims+1)
	for i := range rows {
		rows[i] = firstRow + 2*i
	}
	return newRowAttack(fmt.Sprintf("multi-sided-%d", nVictims), mapper, channel, bank, rows)
}

// NewSingleSided hammers one row.
func NewSingleSided(mapper *mc.AddressMapper, channel, bank, row int) *RowHammer {
	return newRowAttack("single-sided", mapper, channel, bank, []int{row})
}

// NewRowList hammers an explicit row list (used by the BlockHammer
// adversarial pattern, whose rows come from CBF collision search).
func NewRowList(name string, mapper *mc.AddressMapper, channel, bank int, rows []int) *RowHammer {
	return newRowAttack(name, mapper, channel, bank, rows)
}

func newRowAttack(name string, mapper *mc.AddressMapper, channel, bank int, rows []int) *RowHammer {
	if len(rows) == 0 {
		panic("attack: no aggressor rows")
	}
	p := mapper.Params()
	locs := make([]mc.Location, len(rows))
	for i, row := range rows {
		if row < 0 || row >= p.Rows {
			panic(fmt.Sprintf("attack: row %d outside bank of %d rows", row, p.Rows))
		}
		locs[i] = mc.Location{Channel: channel, Bank: bank, Row: row}
	}
	return &RowHammer{name: name, mapper: mapper, locs: locs}
}

// NewDecoy builds the TRR-evasion pattern: a double-sided pair around
// victim, interleaved with n decoy rows far from the victim that each
// receive twice the aggressors' activation rate. A sampling-based
// in-DRAM mitigation (TRR) that refreshes neighbours of the hottest
// sampled rows spends its mitigations on the decoys' neighbourhoods
// while the true aggressors keep accumulating activations — the
// many-sided evasion trick of TRRespass-class attacks. Against the
// paper's exhaustive trackers the decoys are just extra traffic.
func NewDecoy(mapper *mc.AddressMapper, channel, bank, victim, decoys int) (trace.Generator, error) {
	rows := mapper.Params().Rows
	if victim < 1 || victim > rows-2 {
		return nil, fmt.Errorf("attack: decoy victim %d has no neighbours in a bank of %d rows", victim, rows)
	}
	if decoys < 1 {
		return nil, fmt.Errorf("attack: decoy needs at least one decoy row, got %d", decoys)
	}
	// The decoys sit 8 rows apart from victim+96; past this count the walk
	// would wrap around the bank onto the victim's neighbourhood.
	if limit := (rows - 96) / 8; decoys > limit {
		return nil, fmt.Errorf("attack: %d decoy rows do not fit a bank of %d rows (at most %d)", decoys, rows, limit)
	}
	// The access cycle hits every decoy twice per aggressor visit, so the
	// decoys dominate any activation sample while the pair still hammers.
	var seq []int
	for _, aggressor := range []int{victim - 1, victim + 1} {
		for i := 0; i < decoys; i++ {
			seq = append(seq, (victim+96+8*i)%rows)
		}
		seq = append(seq, aggressor)
	}
	return NewRowList(fmt.Sprintf("decoy-%d", decoys), mapper, channel, bank, seq), nil
}

// Throttler is implemented by mitigations whose estimator can be probed for
// collision rows (BlockHammer). The adversarial builder keeps the
// dependency inverted so this package needs no mitigation import.
type Throttler interface {
	// CollidingRows searches up to max rows (≠ target) whose estimator
	// slots overlap target's in the given bank, i.e. activating them
	// inflates target's estimate.
	CollidingRows(globalBank int, targetRow uint32, max int) []uint32
}

// NewBlockHammerAdversary builds the Figure 10(c) pattern: it hammers rows
// that collide (in the scheme's counting Bloom filters) with benignHotRow,
// activating each just enough to push the shared counters past the
// blacklist threshold so the benign row gets throttled. The oracle is the
// deployed scheme's collision interface; callers holding an mc.Scheme
// extract it with a checked type assertion (`scheme.(Throttler)`), which
// yields nil for schemes that expose none. With a nil oracle (i.e. the
// scheme is not BlockHammer) the pattern degrades into a benign-looking
// multi-row walk — exactly how the paper's adversarial pattern behaves
// against non-throttling schemes. Taking the named interface instead of
// interface{} makes a wrong argument (a workload, a mapper) a compile
// error instead of a silent fallback.
func NewBlockHammerAdversary(mapper *mc.AddressMapper, channel, bank int, benignHotRow int, oracle Throttler) trace.Generator {
	loc := mc.Location{Channel: channel, Bank: bank, Row: benignHotRow}
	globalBank := mapper.Map(mapper.Compose(loc)).GlobalBank
	var rows []int
	if oracle != nil {
		for _, r := range oracle.CollidingRows(globalBank, uint32(benignHotRow), 8) {
			rows = append(rows, int(r))
		}
	}
	if len(rows) == 0 {
		// Fallback walk near (but not adjacent to) the benign row.
		for i := 0; i < 8; i++ {
			rows = append(rows, (benignHotRow+64+8*i)%mapper.Params().Rows)
		}
	}
	return NewRowList("bh-adversarial", mapper, channel, bank, rows)
}
