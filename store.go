package mithril

import (
	"mithril/internal/expspec"
	"mithril/internal/resultstore"
)

// ResultStore is the content-addressed row store an Engine consults
// before simulating a grid cell (see WithResultStore): Get/Has are exact
// lookups by content key, Put persists a completed row, Scan walks the
// live records. Implementations must be safe for concurrent use; the
// shipped ones are NewMemResultStore (per-process) and OpenResultStore
// (durable, resumable across runs).
type ResultStore = resultstore.Store

// DiskResultStore is the durable ResultStore: append-only NDJSON
// segments under one directory, an in-memory index (lookups never touch
// the disk), corruption-tolerant reload, and atomic segment finalization
// on Close. See the README's "Result store & resumable sweeps" for the
// on-disk layout and maintenance workflow.
type DiskResultStore = resultstore.Disk

// ResultStoreStats summarizes a disk store (DiskResultStore.Stats).
type ResultStoreStats = resultstore.Stats

// OpenResultStore opens (creating if needed) a durable result store
// rooted at dir. Crash recovery is automatic: a segment left open by a
// killed process is adopted and its intact rows are served; torn lines
// are skipped and re-simulated. Close the store to finalize the active
// segment.
func OpenResultStore(dir string) (*DiskResultStore, error) {
	return resultstore.Open(dir)
}

// NewMemResultStore returns an in-memory ResultStore: rows persist for
// the process lifetime only. Useful in tests and as a request-level
// cache when no store directory is configured.
func NewMemResultStore() ResultStore {
	return resultstore.NewMem()
}

// ResultStoreSchemaVersion is the stored-row schema generation embedded
// in every row key; stored rows from other generations never match.
const ResultStoreSchemaVersion = resultstore.SchemaVersion

// ResultStoreStamp returns the version stamp rows are currently keyed
// under: the schema version plus a fingerprint of the scheme table's
// sorted names. Adding or renaming a scheme changes it, so stale stored
// rows self-invalidate. The CLI's `mithrilsim version` and
// the serve /healthz endpoint expose it for operators comparing stores
// across builds.
func ResultStoreStamp() string {
	return expspec.StoreStamp()
}

// ResultStoreFingerprint condenses a sorted name inventory into the
// short scheme-table fingerprint ResultStoreStamp embeds.
func ResultStoreFingerprint(names []string) string {
	return resultstore.Fingerprint(names)
}
