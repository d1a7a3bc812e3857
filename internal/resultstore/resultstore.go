// Package resultstore is the content-addressed result store behind
// resumable sweeps: every simulated grid row is keyed by a canonical hash
// of everything that determines its output — the canonicalized cell
// values, the resolved timing parameters, the scale geometry, and a
// schema/registry version stamp — so a row is simulated at most once,
// ever, across process lifetimes. Executors consult the store before
// dispatching a cell and write the row back when workers finish it;
// because the key covers every input, a hit is always sound to serve.
//
// Two implementations back the one small Store interface: Mem (tests,
// per-process caching) and Disk (durable NDJSON segments with an
// in-memory index, corruption-tolerant reload, and atomic segment
// finalization). Stale results self-invalidate: the version stamp folded
// into every key changes whenever the schema or the scheme registry
// changes, so old segments simply stop matching rather than serving
// wrong rows.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// SchemaVersion is the stored-row schema generation. Bump it whenever the
// serialized row payloads change shape or meaning (new output columns,
// changed normalization, a simulator behaviour change that invalidates
// old numbers): every key embeds it, so bumping orphans all prior
// records without any migration.
const SchemaVersion = 1

// Key is the content address of one grid row: a SHA-256 over the
// canonical component lines (see HashComponents).
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk spelling).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes the hex spelling String produces.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return Key{}, fmt.Errorf("resultstore: bad key %q: %w", s, err)
	}
	if len(b) != len(k) {
		return Key{}, fmt.Errorf("resultstore: bad key %q: want %d bytes, got %d", s, len(k), len(b))
	}
	copy(k[:], b)
	return k, nil
}

// HashComponents derives a Key from named components: each name=value
// pair becomes one line, lines are sorted by name, and the concatenation
// is hashed. Sorting makes the key independent of map iteration and of
// the order callers assemble components in; the name= prefix keeps
// ("a","bc") distinct from ("ab","c").
func HashComponents(components map[string]string) Key {
	lines := make([]string, 0, len(components))
	for name, value := range components {
		lines = append(lines, name+"="+value+"\n")
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Fingerprint condenses a name inventory (a registry's Names()) into a
// short stable hex digest: sorted, newline-joined, hashed, truncated.
// Registering, removing, or renaming an entry changes it.
func Fingerprint(names []string) string {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	sum := sha256.Sum256([]byte(strings.Join(sorted, "\n")))
	return hex.EncodeToString(sum[:8])
}

// Stamp combines the schema version with a registry fingerprint into the
// version stamp stored alongside every record and folded into every key.
func Stamp(registryNames []string) string {
	return fmt.Sprintf("v%d+%s", SchemaVersion, Fingerprint(registryNames))
}

// Record is one stored row: its content address, the version stamp it was
// written under, and the opaque row payload (the executor's serialized
// row). The stamp is stored denormalized — it is already folded into the
// key — so stats and GC can group records by generation without decoding
// payloads.
type Record struct {
	Key     Key
	Stamp   string
	Payload json.RawMessage
}

// Store is the result-store contract executors program against. All
// methods are safe for concurrent use. Get is an exact key lookup; Put
// is last-write-wins and must persist the record before returning
// (durability beyond the process is the implementation's contract: Disk
// appends before returning, Mem keeps it in memory).
type Store interface {
	Get(k Key) (Record, bool)
	Put(rec Record) error
}
