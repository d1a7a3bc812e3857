package resultstore

import "sync"

// Mem is the in-memory Store: a mutex-guarded map. It backs tests and
// acts as a process-lifetime cache when no directory is configured; it
// is also the reference semantics the Disk implementation must match.
type Mem struct {
	mu   sync.Mutex
	recs map[Key]Record
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{recs: map[Key]Record{}}
}

// Get returns the record stored under k.
func (m *Mem) Get(k Key) (Record, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.recs[k]
	return rec, ok
}

// Put stores rec, replacing any record under the same key.
func (m *Mem) Put(rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs[rec.Key] = rec
	return nil
}
