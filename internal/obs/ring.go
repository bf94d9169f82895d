package obs

// Ring is a bounded ring buffer retaining the last values pushed into it:
// once full, every push overwrites the oldest value. The ledger, the flight
// recorder, the time series, the event tail and the cache's ghost list all
// retain through it. Ring is not safe for concurrent use; its owner
// serializes access.
type Ring[T any] struct {
	buf    []T
	pushed int64
}

// NewRing returns a ring retaining at most capacity values (at least one).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 1))}
}

// Push appends v. Once the ring is full it overwrites the oldest value and
// returns it with evicted true. It never allocates.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	i := int(r.pushed % int64(len(r.buf)))
	old, evicted = r.buf[i], r.pushed >= int64(len(r.buf))
	r.buf[i] = v
	r.pushed++
	return old, evicted
}

// Len reports how many values are retained.
func (r *Ring[T]) Len() int { return int(min(r.pushed, int64(len(r.buf)))) }

// Pushed reports how many values were ever pushed; Pushed() - Len() is how
// many the ring has dropped.
func (r *Ring[T]) Pushed() int64 { return r.pushed }

// Snapshot copies the retained values oldest-first into a fresh slice.
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, 0, r.Len())
	if r.pushed <= int64(len(r.buf)) {
		return append(out, r.buf[:r.pushed]...)
	}
	i := int(r.pushed % int64(len(r.buf)))
	out = append(out, r.buf[i:]...)
	return append(out, r.buf[:i]...)
}
