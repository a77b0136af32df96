package events

// Ring is the repository's one bounded history: a fixed-capacity buffer
// that overwrites its oldest entry once full. Slots are claimed in place
// (Next), so a ring of reusable structs — the flight recorder's tick
// slots, the accounting plane's events — records at zero allocations;
// reads are by age (At(0) is the oldest). Not safe for concurrent use:
// every holder already has a lock of its own.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest entry
	n    int
}

// NewRing returns an empty ring holding at most capacity entries.
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, capacity)}
}

// Next claims the slot after the newest entry — evicting the oldest when
// the ring is full — and returns it for the caller to fill in place. The
// slot still holds whatever it held before (reuse its buffers).
func (r *Ring[T]) Next() *T {
	if r.n < len(r.buf) {
		r.n++
		return r.At(r.n - 1)
	}
	slot := &r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	return slot
}

// Put appends v, evicting the oldest entry when the ring is full.
func (r *Ring[T]) Put(v T) { *r.Next() = v }

// Len reports the live entries.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th oldest entry, 0 <= i < Len.
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)%len(r.buf)] }

// Slice copies the live entries out, oldest first.
func (r *Ring[T]) Slice() []T {
	out := make([]T, r.n)
	for i := range out {
		out[i] = *r.At(i)
	}
	return out
}
