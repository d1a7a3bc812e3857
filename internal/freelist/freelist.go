// Package freelist recycles simulator objects between runs: a
// mutex-guarded stack of released values per key. Unlike sync.Pool, the
// garbage collector never empties it, so a recycled object is rebuilt only
// when more of them are live at once than ever before. The list holds at
// most the peak number of values in use at one time per key.
package freelist

import "sync"

// List is a set of per-key free lists. The zero value is ready to use and
// safe for concurrent use.
type List[K comparable, V any] struct {
	mu   sync.Mutex
	free map[K][]V
}

// Get removes and returns a released value for key, or reports false when
// none is free.
func (l *List[K, V]) Get(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var zero V
	vs := l.free[key]
	if len(vs) == 0 {
		return zero, false
	}
	v := vs[len(vs)-1]
	vs[len(vs)-1] = zero
	l.free[key] = vs[:len(vs)-1]
	return v, true
}

// Put releases v under key for a later Get.
func (l *List[K, V]) Put(key K, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.free == nil {
		l.free = make(map[K][]V)
	}
	l.free[key] = append(l.free[key], v)
}
