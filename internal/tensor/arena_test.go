package tensor

import (
	"testing"
)

func TestArenaGetZeroedAndShaped(t *testing.T) {
	ws := NewArena()
	a := ws.Get(3, 4)
	if a.Dim(0) != 3 || a.Dim(1) != 4 || a.Len() != 12 {
		t.Fatalf("shape %v len %d", a.Shape(), a.Len())
	}
	for i := range a.Data {
		a.Data[i] = float32(i + 1)
	}
	ws.Release()

	// Same size class must recycle the dirtied storage, zeroed again.
	b := ws.Get(4, 3)
	if b.Len() != 12 {
		t.Fatalf("len %d", b.Len())
	}
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
}

func TestArenaReusesAfterRelease(t *testing.T) {
	ws := NewArena()
	shapes := [][]int{{8, 8}, {16}, {4, 4, 4}, {100}}
	for step := 0; step < 5; step++ {
		for _, s := range shapes {
			_ = ws.Get(s...)
		}
		_ = ws.Floats(77)
		_ = ws.Ints(33)
		_ = ws.Float64s(9)
		ws.Release()
	}
	// After the first step every Get must be a hit: misses stop growing.
	warmMisses := ws.Misses()
	for step := 0; step < 3; step++ {
		for _, s := range shapes {
			_ = ws.Get(s...)
		}
		_ = ws.Floats(77)
		_ = ws.Ints(33)
		_ = ws.Float64s(9)
		ws.Release()
	}
	if ws.Misses() != warmMisses {
		t.Fatalf("warm arena still allocating: misses %d -> %d", warmMisses, ws.Misses())
	}
	if ws.Gets() <= warmMisses {
		t.Fatalf("gets %d misses %d", ws.Gets(), ws.Misses())
	}
}

func TestArenaSteadyStateAllocationFree(t *testing.T) {
	ws := NewArena()
	step := func() {
		a := ws.Get(32, 32)
		b := ws.GetDirty(32, 32)
		copy(b.Data, a.Data)
		_ = ws.Floats(1000)
		_ = ws.Ints(64)
		ws.Release()
	}
	step() // warmup
	if n := testing.AllocsPerRun(20, step); n > 0 {
		t.Fatalf("warm arena step allocates %v times", n)
	}
}

func TestArenaNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative dimension")
		}
	}()
	NewArena().Get(2, -1)
}

func TestArenaStateSurvivesRelease(t *testing.T) {
	ws := NewArena()
	key := new(int)
	made := 0
	mk := func() any { made++; return &made }
	s1 := ws.StateFor(key, mk)
	ws.Release()
	s2 := ws.StateFor(key, mk)
	if s1 != s2 || made != 1 {
		t.Fatalf("state not stable across Release (made %d)", made)
	}
}

func TestMatMulInMatchesMatMul(t *testing.T) {
	r := NewRNG(11)
	a, b := New(5, 7), New(7, 3)
	r.FillNormal(a, 1)
	r.FillNormal(b, 1)
	ws := NewArena()
	for step := 0; step < 2; step++ { // second step exercises recycled buffers
		if d := MaxAbsDiff(MatMul(a, b), MatMulIn(ws, a, b)); d != 0 {
			t.Fatalf("MatMulIn differs by %v", d)
		}
		bt := Transpose(b)
		if d := MaxAbsDiff(MatMulTB(a, bt), MatMulTBIn(ws, a, bt)); d != 0 {
			t.Fatalf("MatMulTBIn differs by %v", d)
		}
		at := Transpose(a)
		if d := MaxAbsDiff(MatMulTA(at, at), MatMulTAIn(ws, at, at)); d != 0 {
			t.Fatalf("MatMulTAIn differs by %v", d)
		}
		ws.Release()
	}
}

func TestSizeClass(t *testing.T) {
	f32 := map[int]int{0: 64, 1: 64, 64: 64, 65: 128, 1000: 1024, 4096: 4096}
	for n, want := range f32 {
		if got := sizeClass(n, 4); got != want {
			t.Fatalf("sizeClass(%d, 4) = %d, want %d", n, got, want)
		}
	}
	// The floor is 256 bytes, not 64 elements: wider elements get a lower
	// element floor, narrower ones a higher one.
	for _, c := range []struct{ n, elem, want int }{
		{1, 8, 32}, {32, 8, 32}, {33, 8, 64}, // float64, int
		{1, 2, 128}, {129, 2, 256}, // fp16
		{1, 1, 256}, {257, 1, 512}, // int8
		{1, 1024, 1}, {3, 1024, 4}, // wider than the floor: per-element classes
	} {
		if got := sizeClass(c.n, c.elem); got != c.want {
			t.Fatalf("sizeClass(%d, %d) = %d, want %d", c.n, c.elem, got, c.want)
		}
	}
}

// TestArenaBucketWidths pins the byte-based floor end to end: the capacity a
// pool hands out reflects its element width, and recycled buffers come back
// from the matching class (a float64 buffer must never be sized as if its
// elements were 4 bytes wide).
func TestArenaBucketWidths(t *testing.T) {
	ws := NewArena()
	f := ws.Floats(9)
	d := ws.Float64s(9)
	if cap(f) != 64 {
		t.Fatalf("float32 floor bucket cap = %d, want 64 (256 bytes)", cap(f))
	}
	if cap(d) != 32 {
		t.Fatalf("float64 floor bucket cap = %d, want 32 (256 bytes)", cap(d))
	}
	ws.Release()
	// Same class on reuse: a request within the floor gets the recycled
	// backing array, one beyond it allocates the next class up.
	d2 := ws.Float64s(32)
	if &d2[0] != &d[0] {
		t.Fatal("float64 floor bucket was not recycled within its class")
	}
	d3 := ws.Float64s(33)
	if cap(d3) != 64 {
		t.Fatalf("float64 second class cap = %d, want 64", cap(d3))
	}
	ws.Release()
}
