package events

import "sync"

// Topic is one named stream with history: every published event is
// retained for replay and fanned out to the live subscribers, each behind
// its own bounded backlog (Subscriber). A newcomer first receives the
// retained history, then live events, with no gap and no duplicate. Both
// SSE sources in the repository — a job's event log and the SLO alert
// stream — are a Topic; they differ only in how much history they keep.
// All methods are safe for concurrent use.
type Topic[T any] struct {
	replay int
	opts   Options[T]

	mu     sync.Mutex
	hist   []T // oldest first; the newest replay entries when replay > 0
	subs   []*Subscriber[T]
	closed bool
}

// NewTopic builds a topic whose subscribers get opts' backlog policy.
// replay bounds the retained history (the newest replay events are kept);
// replay <= 0 retains everything.
func NewTopic[T any](replay int, opts Options[T]) *Topic[T] {
	return &Topic[T]{replay: replay, opts: opts}
}

// Publish retains e and hands it to every live subscriber. Publishing to
// a closed topic is a no-op.
func (t *Topic[T]) Publish(e T) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.hist = append(t.hist, e)
	if t.replay > 0 && len(t.hist) > t.replay {
		t.hist = t.hist[len(t.hist)-t.replay:]
	}
	for _, sub := range t.subs {
		sub.Push(e)
	}
}

// Subscribe returns a channel replaying the retained history and then
// streaming live events, plus a cancel func that abandons the stream
// (safe to call more than once, and concurrently with Publish). The
// channel closes after a terminal event, after cancel, or — once its
// backlog has drained — after Close; on an already closed topic it
// closes right after the replay.
func (t *Topic[T]) Subscribe() (<-chan T, func()) {
	t.mu.Lock()
	sub := New(t.hist, t.opts)
	if t.closed {
		sub.Close()
	} else {
		t.subs = append(t.subs, sub)
	}
	t.mu.Unlock()
	return sub.C(), func() {
		sub.Drop()
		t.mu.Lock()
		for i, x := range t.subs {
			if x == sub {
				t.subs = append(t.subs[:i], t.subs[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
	}
}

// Close ends every subscription after its backlog drains and detaches
// them; the history stays readable and replayable. Idempotent.
func (t *Topic[T]) Close() {
	t.mu.Lock()
	subs := t.subs
	t.subs, t.closed = nil, true
	t.mu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
}

// Len reports the retained history's length — with full retention, the
// number of events ever published, which is how a job numbers its events.
func (t *Topic[T]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.hist)
}

// History returns a copy of the retained events, oldest first.
func (t *Topic[T]) History() []T {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]T(nil), t.hist...)
}
