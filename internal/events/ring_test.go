package events

import (
	"reflect"
	"testing"
)

func TestRingWraparoundKeepsNewestOldestFirst(t *testing.T) {
	r := NewRing[int](4)
	if r.Len() != 0 || len(r.Slice()) != 0 {
		t.Fatalf("fresh ring holds %d entries", r.Len())
	}
	for i := 1; i <= 3; i++ {
		r.Put(i)
	}
	if got := r.Slice(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("partly filled ring = %v", got)
	}
	for i := 4; i <= 10; i++ { // overwrites 1..6
		r.Put(i)
	}
	if got := r.Slice(); !reflect.DeepEqual(got, []int{7, 8, 9, 10}) {
		t.Fatalf("wrapped ring = %v, want the newest four oldest-first", got)
	}
	if r.Len() != 4 || *r.At(0) != 7 || *r.At(3) != 10 {
		t.Fatalf("Len/At disagree with Slice: len %d, At(0) %d, At(3) %d", r.Len(), *r.At(0), *r.At(3))
	}
}

// TestRingNextReusesSlotsInPlace pins the contract the flight recorder's
// tick ring and the accounting ring rely on: a claimed slot still owns
// the buffers it held on its previous lap, so refilling it allocates
// nothing once every slot has been claimed once.
func TestRingNextReusesSlotsInPlace(t *testing.T) {
	type slot struct {
		seq  int
		vals []float64
	}
	r := NewRing[slot](3)
	seq := 0
	fill := func() {
		s := r.Next()
		seq++
		s.seq = seq
		if cap(s.vals) < 8 {
			s.vals = make([]float64, 8)
		}
		s.vals = s.vals[:8]
		s.vals[0] = float64(seq)
	}
	for i := 0; i < 3; i++ {
		fill() // first lap allocates each slot's buffer
	}
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Fatalf("refilling claimed slots allocates %.0f/op, want 0", allocs)
	}
	for i := 0; i < r.Len(); i++ {
		if s := r.At(i); s.vals[0] != float64(s.seq) || (i > 0 && s.seq != r.At(i-1).seq+1) {
			t.Fatalf("slot %d = {seq %d, vals[0] %v}: a refill leaked into a neighbour or broke the order", i, s.seq, s.vals[0])
		}
	}
	if newest := r.At(r.Len() - 1).seq; newest != seq {
		t.Fatalf("newest slot carries seq %d, want %d", newest, seq)
	}
}
