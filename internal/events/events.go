// Package events holds the shared primitives under the daemon's
// observability planes: Ring, the one bounded history (ring.go); Topic,
// the one stream-with-history, behind job event streams and /v1/alerts
// (topic.go); and Subscriber, the bounded-backlog consumer a Topic hands
// each client.
//
// A Subscriber is one stream consumer: a bounded pending queue drained
// by a pump goroutine, so slow consumers never block publishers and
// never grow memory without limit. Once the backlog exceeds the bound,
// the oldest droppable pending events are discarded and the consumer
// receives a single synthesized "lost" marker in their place. Events
// the Terminal predicate marks are never dropped — they end the stream
// and must always be deliverable. A consumer that stops reading without
// unsubscribing cannot strand the pump either: sends race a done
// channel closed by Drop.
package events

import "sync"

// Options configures a Subscriber's backlog policy. The zero value is a
// valid unbounded, droppable-everything, unmetered stream.
type Options[T any] struct {
	// Backlog bounds the pending queue (<= 0: unbounded).
	Backlog int
	// Terminal, when set, marks events that end the stream: the pump
	// closes the channel after delivering one, and such events are never
	// dropped to make room. Nil means no event is terminal.
	Terminal func(T) bool
	// Lost synthesizes the marker delivered in place of a dropped run of
	// events: lost is how many were dropped, first is the first of them
	// and next is the event that will be delivered right after the
	// marker. Nil means drops are silent.
	Lost func(lost int, first, next T) T
	// OnDrop is called once per dropped event (metering hook — keeps
	// this package free of any metrics dependency). Nil disables.
	OnDrop func()
}

// Subscriber is one bounded-backlog stream consumer. Create with New;
// all methods are safe for concurrent use.
type Subscriber[T any] struct {
	opts Options[T]

	mu      sync.Mutex
	cond    *sync.Cond
	pending []T
	stopped bool // no further events will be queued
	lost    int  // events dropped since the last lost marker
	first   T    // the first of them

	done     chan struct{} // closed when the consumer abandons the stream
	dropOnce sync.Once
	ch       chan T
}

// New builds a subscriber, seeds its backlog with replay (delivered
// before any live event) and starts the pump.
func New[T any](replay []T, opts Options[T]) *Subscriber[T] {
	sub := &Subscriber[T]{
		opts: opts,
		ch:   make(chan T, 16),
		done: make(chan struct{}),
	}
	sub.cond = sync.NewCond(&sub.mu)
	sub.pending = append(sub.pending, replay...)
	go sub.pump()
	return sub
}

// C returns the delivery channel. It closes after a terminal event, or
// after Close once the backlog has drained.
func (sub *Subscriber[T]) C() <-chan T { return sub.ch }

// Push queues one event, evicting the oldest droppable pending event
// when the backlog is full.
func (sub *Subscriber[T]) Push(e T) {
	sub.mu.Lock()
	if !sub.stopped {
		if sub.opts.Backlog > 0 && len(sub.pending) >= sub.opts.Backlog {
			// Drop the oldest non-terminal pending event (terminal events
			// are always deliverable: they end the stream).
			for i := range sub.pending {
				if sub.opts.Terminal != nil && sub.opts.Terminal(sub.pending[i]) {
					continue
				}
				if sub.lost == 0 {
					sub.first = sub.pending[i]
				}
				sub.lost++
				sub.pending = append(sub.pending[:i], sub.pending[i+1:]...)
				if sub.opts.OnDrop != nil {
					sub.opts.OnDrop()
				}
				break
			}
		}
		sub.pending = append(sub.pending, e)
		sub.cond.Signal()
	}
	sub.mu.Unlock()
}

// Close stops the stream after any already-queued events are delivered.
func (sub *Subscriber[T]) Close() {
	sub.mu.Lock()
	sub.stopped = true
	sub.cond.Signal()
	sub.mu.Unlock()
}

// Drop abandons the stream immediately (consumer went away): pending
// events are discarded and a pump blocked on a send is released. Safe
// to call more than once.
func (sub *Subscriber[T]) Drop() {
	sub.dropOnce.Do(func() { close(sub.done) })
	sub.mu.Lock()
	sub.stopped = true
	sub.pending = nil
	sub.cond.Signal()
	sub.mu.Unlock()
}

func (sub *Subscriber[T]) pump() {
	for {
		sub.mu.Lock()
		for len(sub.pending) == 0 && !sub.stopped {
			sub.cond.Wait()
		}
		if len(sub.pending) == 0 {
			sub.mu.Unlock()
			close(sub.ch)
			return
		}
		var e T
		if sub.lost > 0 && sub.opts.Lost != nil {
			// Surface the gap before the next surviving event.
			e = sub.opts.Lost(sub.lost, sub.first, sub.pending[0])
			sub.lost = 0
		} else {
			sub.lost = 0
			e = sub.pending[0]
			sub.pending = sub.pending[1:]
		}
		sub.mu.Unlock()
		select {
		case sub.ch <- e:
		case <-sub.done:
			return // abandoned; nobody reads ch anymore
		}
		if sub.opts.Terminal != nil && sub.opts.Terminal(e) {
			// Terminal is always the last event; drain and close.
			sub.Close()
		}
	}
}
