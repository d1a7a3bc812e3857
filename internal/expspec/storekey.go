package expspec

// Content-addressed row keys: every grid cell hashes to a
// resultstore.Key covering everything that determines its output row —
// the canonicalized cell values, the resolved timing parameters, the
// scale geometry, the experiment kind, and the schema/scheme-table
// version stamp. Two cells with equal keys are guaranteed to produce
// byte-identical rows, so executors may serve either's stored result for
// the other; anything that could change a row's numbers must change its
// key. Axis order, spec name/title, column selection, and worker count
// are deliberately absent: none of them affect a row's values.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"mithril/internal/attack"
	"mithril/internal/mitigation"
	"mithril/internal/resultstore"
	"mithril/internal/trace"
)

// StoreStamp is the version stamp rows are keyed and stored under:
// the resultstore schema version plus a fingerprint of the scheme
// table's sorted names. Adding or renaming a scheme, or a schema bump,
// changes it, so stale stored rows stop matching instead of being
// served. The table is fixed at compile time, so the stamp is computed
// once per process.
func StoreStamp() string { return storeStamp }

var storeStamp = resultstore.Stamp(mitigation.Names())

// cellKey derives one cell's content address. cacheable is false for
// rows the store must not serve — trace-replay workloads, whose row
// values depend on file contents the key cannot see.
func (s *Spec) cellKey(sc Scale, c Cell, stamp string) (key resultstore.Key, cacheable bool, err error) {
	if strings.HasPrefix(c.Workload, trace.TracePrefix) {
		return resultstore.Key{}, false, nil
	}
	comp := map[string]string{
		"stamp": stamp,
		// The resolved parameter set, not just TimeScale: a change to the
		// DDR5 constants must invalidate rows even at an unchanged scale.
		"timing":      fmt.Sprintf("%+v", sc.Params()),
		"cores":       strconv.Itoa(sc.Cores),
		"instr":       strconv.FormatInt(sc.InstrPerCore, 10),
		"timescale":   strconv.Itoa(sc.TimeScale),
		"kind":        string(s.Kind),
		"seed":        strconv.FormatUint(c.Seed, 10),
		"flipth":      strconv.Itoa(c.FlipTH),
		"rfmth":       strconv.Itoa(c.RFMTH),
		"adth":        strconv.Itoa(c.AdTH),
		"scheme":      c.Scheme,
		"workload":    c.Workload,
		"adversarial": strconv.FormatBool(c.Adversarial),
	}
	if c.Attack != "" {
		// The canonical spelling, so "multi:08" and "multi:8" share a key
		// (they build the same generator).
		canon, err := attack.Canonical(c.Attack)
		if err != nil {
			return resultstore.Key{}, false, err
		}
		comp["attack"] = canon
	}
	if k, ok := kindTable[s.Kind]; ok {
		if name, value := k.keyPart(s); name != "" {
			comp[name] = value
		}
	}
	return resultstore.HashComponents(comp), true, nil
}

// EncodeRowPayload serializes a completed row's point for the wire or the
// store. The encoding is the result store's row payload — JSON round-trips
// float64 exactly, so a decoded row renders byte-identically to the
// locally simulated one in every output format including golden. This is
// what a distributed worker sends per row (lossy display projections like
// RowValues drop columns the spec doesn't emit, so they cannot carry a
// row between processes).
func EncodeRowPayload(row Row) (json.RawMessage, error) { return encodeRow(row) }

// DecodeRowPayload deserializes a payload produced by EncodeRowPayload
// into row's point field for the kind. ok is false on any mismatch —
// undecodable payload, wrong or missing point — which receivers treat as
// the row not having been delivered.
func DecodeRowPayload(kind Kind, payload json.RawMessage, row *Row) bool {
	return decodeRow(kind, payload, row)
}

// storedRow is the serialized row payload: exactly one pointer set,
// matching the spec kind, like Row itself. encoding/json round-trips
// float64 exactly, so a decoded row renders byte-identically to the
// simulated one in every output format including golden.
type storedRow struct {
	Perf   *PerfPoint    `json:"perf,omitempty"`
	Safety *SafetyResult `json:"safety,omitempty"`
	Grid   *Figure9Point `json:"grid,omitempty"`
	AdTH   *Figure7Point `json:"adth,omitempty"`
}

// encodeRow serializes a completed row for storage.
func encodeRow(row Row) (json.RawMessage, error) {
	payload, err := json.Marshal(storedRow{row.Perf, row.Safety, row.Grid, row.AdTH})
	if err != nil {
		return nil, fmt.Errorf("expspec: encoding row %d: %w", row.Index, err)
	}
	return payload, nil
}

// decodeRow deserializes a stored payload into the row's point field.
// ok is false for any mismatch — undecodable payload, a missing point,
// one of another kind or more than one — which callers treat as a cache
// miss (the row re-simulates and the record is overwritten), never an
// error.
func decodeRow(kind Kind, payload json.RawMessage, row *Row) bool {
	var sr storedRow
	k, ok := kindTable[kind]
	if !ok || json.Unmarshal(payload, &sr) != nil {
		return false
	}
	stored := *row
	stored.Perf, stored.Safety, stored.Grid, stored.AdTH = sr.Perf, sr.Safety, sr.Grid, sr.AdTH
	if !k.has(stored) || stored.points() != 1 {
		return false
	}
	*row = stored
	return true
}
