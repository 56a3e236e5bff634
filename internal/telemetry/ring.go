package telemetry

import "sync"

// Ring is a bounded log that keeps its newest entries: a push into a
// full ring overwrites the oldest. The event log, the slow-query log,
// the trace store's eviction order and the federation's audit ledger are
// each one Ring. It is safe for concurrent use.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int  // slot the next push writes
	full bool // every slot holds an entry; next is the oldest
}

// NewRing returns an empty ring of the given capacity, which must be
// positive.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v. When the ring was full it returns the entry v
// overwrote and true.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, evicted = r.buf[r.next], r.full
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	return old, evicted
}

// Snapshot returns a copy of the entries, oldest first (nil when empty).
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]T(nil), r.buf[:r.next]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Newest returns the newest entry match accepts, scanning from the
// newest entry back to the oldest. match runs on a snapshot, outside
// the ring's lock.
func (r *Ring[T]) Newest(match func(T) bool) (T, bool) {
	all := r.Snapshot()
	for i := len(all) - 1; i >= 0; i-- {
		if match(all[i]) {
			return all[i], true
		}
	}
	var zero T
	return zero, false
}
