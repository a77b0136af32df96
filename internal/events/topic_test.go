package events

import (
	"sync"
	"testing"
	"time"
)

// drain reads ch until it closes (or the deadline passes).
func drain(t *testing.T, ch <-chan ev) []ev {
	t.Helper()
	var got []ev
	deadline := time.After(5 * time.Second)
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return got
			}
			got = append(got, e)
		case <-deadline:
			t.Fatalf("channel still open after %d events: %v", len(got), got)
		}
	}
}

func TestTopicReplaysHistoryThenLiveInOrder(t *testing.T) {
	tp := NewTopic(0, opts(0, nil, nil))
	tp.Publish(ev{Seq: 0})
	tp.Publish(ev{Seq: 1})
	ch, cancel := tp.Subscribe()
	defer cancel()
	tp.Publish(ev{Seq: 2})
	tp.Publish(ev{Seq: 3, Kind: "done", terminal: true})
	got := drain(t, ch) // the terminal event closes the stream
	if len(got) != 4 {
		t.Fatalf("got %d events, want 2 replayed + 2 live: %v", len(got), got)
	}
	for i, e := range got {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d (replay must precede live, no gap, no duplicate): %v", i, e.Seq, got)
		}
	}
	if tp.Len() != 4 || len(tp.History()) != 4 {
		t.Fatalf("full-retention topic holds %d/%d events, want 4", tp.Len(), len(tp.History()))
	}
}

func TestTopicBoundedReplayKeepsNewest(t *testing.T) {
	tp := NewTopic(3, opts(0, nil, nil))
	for i := 0; i < 10; i++ {
		tp.Publish(ev{Seq: i})
	}
	ch, cancel := tp.Subscribe()
	tp.Close()
	defer cancel()
	got := drain(t, ch)
	if len(got) != 3 || got[0].Seq != 7 || got[2].Seq != 9 {
		t.Fatalf("replay = %v, want the newest three (7, 8, 9)", got)
	}
}

// TestTopicCloseDrainsThenReplaysToLatecomers is the contract /v1/alerts
// had from the SLO hub: Close is idempotent, a live subscriber receives
// everything queued before it and then sees the channel close, and a
// subscriber arriving after Close gets the replay and a closed channel.
func TestTopicCloseDrainsThenReplaysToLatecomers(t *testing.T) {
	tp := NewTopic(64, opts(16, nil, nil))
	tp.Publish(ev{Seq: 1, Kind: "pending"})
	tp.Publish(ev{Seq: 2, Kind: "firing"})
	ch, cancel := tp.Subscribe()
	defer cancel()
	tp.Close()
	tp.Close() // idempotent
	if got := drain(t, ch); len(got) != 2 || got[0].Seq != 1 || got[1].Kind != "firing" {
		t.Fatalf("live subscriber drained %v, want both events before the close", got)
	}
	tp.Publish(ev{Seq: 3}) // dropped: the topic is closed
	late, cancelLate := tp.Subscribe()
	defer cancelLate()
	if got := drain(t, late); len(got) != 2 {
		t.Fatalf("post-close replay delivered %d events, want 2", len(got))
	}
}

// TestTopicCancelDuringPublish races subscribers joining, reading and
// cancelling against a steady publisher (run under -race): cancel is
// idempotent, never deadlocks a publish, and a cancelled subscriber stops
// costing the publisher anything.
func TestTopicCancelDuringPublish(t *testing.T) {
	tp := NewTopic(8, opts(4, nil, nil))
	stop := make(chan struct{})
	var pub sync.WaitGroup
	pub.Add(1)
	go func() {
		defer pub.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				tp.Publish(ev{Seq: i})
			}
		}
	}()
	var subs sync.WaitGroup
	for g := 0; g < 8; g++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for i := 0; i < 50; i++ {
				ch, cancel := tp.Subscribe()
				<-ch // replay or live: something always arrives
				cancel()
				cancel()
			}
		}()
	}
	subs.Wait()
	close(stop)
	pub.Wait()
	tp.mu.Lock()
	left := len(tp.subs)
	tp.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d cancelled subscribers still attached to the topic", left)
	}
}
