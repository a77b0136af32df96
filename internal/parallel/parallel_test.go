package parallel

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		counts := make([]int32, n)
		ForArg(n, counts, func(counts []int32, i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForChunkedBoundaries(t *testing.T) {
	n := 103
	var total atomic.Int64
	ForChunkedArg(n, 0, func(_, lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		total.Add(int64(hi - lo))
	})
	if total.Load() != int64(n) {
		t.Fatalf("chunks cover %d of %d", total.Load(), n)
	}
}

func TestForChunkedZeroAndNegative(t *testing.T) {
	called := false
	ForChunkedArg(0, 0, func(_, lo, hi int) { called = true })
	ForChunkedArg(-5, 0, func(_, lo, hi int) { called = true })
	if called {
		t.Fatal("body called for n<=0")
	}
}

func TestReduceFloat64Correct(t *testing.T) {
	n := 1234
	got := ReduceFloat64Arg(n, 1.0, func(scale float64, i int) float64 { return scale * float64(i) })
	want := float64(n*(n-1)) / 2
	if got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestReduceFloat64Deterministic(t *testing.T) {
	n := 9999
	body := func(num float64, i int) float64 { return num / float64(i+1) }
	first := ReduceFloat64Arg(n, 1.0, body)
	for trial := 0; trial < 10; trial++ {
		if got := ReduceFloat64Arg(n, 1.0, body); got != first {
			t.Fatalf("trial %d: %v != %v", trial, got, first)
		}
	}
}

func TestSetWorkersRestore(t *testing.T) {
	initial := Workers()
	old := SetWorkers(3)
	if old != initial {
		t.Fatalf("SetWorkers returned %d, want the previous value %d", old, initial)
	}
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	// The canonical save/restore idiom: restoring the returned value must
	// bring back the exact initial setting.
	if prev := SetWorkers(old); prev != 3 {
		t.Fatalf("restore returned %d, want 3", prev)
	}
	if Workers() != initial {
		t.Fatalf("Workers() = %d after restore, want %d", Workers(), initial)
	}
}

func TestForBlockedBoundaries(t *testing.T) {
	old := SetWorkers(4)
	defer SetWorkers(old)
	for _, tc := range []struct{ n, block int }{
		{103, 8}, {64, 16}, {7, 8}, {1, 1}, {100, 1}, {33, 0}, // block<1 clamps to 1
	} {
		var mu sync.Mutex
		covered := make([]int, tc.n)
		ForBlockedArg(tc.n, tc.block, 0, func(_, lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("n=%d block=%d: bad chunk [%d,%d)", tc.n, tc.block, lo, hi)
			}
			block := max(tc.block, 1)
			if lo%block != 0 {
				t.Errorf("n=%d block=%d: lo=%d not tile-aligned", tc.n, tc.block, lo)
			}
			if hi != tc.n && hi%block != 0 {
				t.Errorf("n=%d block=%d: hi=%d not tile-aligned", tc.n, tc.block, hi)
			}
			mu.Lock()
			for i := lo; i < hi; i++ {
				covered[i]++
			}
			mu.Unlock()
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d block=%d: index %d covered %d times", tc.n, tc.block, i, c)
			}
		}
	}
}

// TestForBlockedDeterministicChunking pins the contract the GEMM drivers
// rely on: the same n, block, and worker count always produce the same
// chunk boundaries, regardless of scheduling.
func TestForBlockedDeterministicChunking(t *testing.T) {
	old := SetWorkers(4)
	defer SetWorkers(old)
	record := func(n, block int) [][2]int {
		var mu sync.Mutex
		var chunks [][2]int
		ForBlockedArg(n, block, 0, func(_, lo, hi int) {
			mu.Lock()
			chunks = append(chunks, [2]int{lo, hi})
			mu.Unlock()
		})
		sort.Slice(chunks, func(i, j int) bool { return chunks[i][0] < chunks[j][0] })
		return chunks
	}
	for _, tc := range []struct{ n, block int }{{1000, 8}, {37, 4}, {64, 16}} {
		first := record(tc.n, tc.block)
		for trial := 0; trial < 10; trial++ {
			if got := record(tc.n, tc.block); !reflect.DeepEqual(got, first) {
				t.Fatalf("n=%d block=%d trial %d: chunks %v != %v", tc.n, tc.block, trial, got, first)
			}
		}
	}
}

func TestForBlockedZero(t *testing.T) {
	called := false
	ForBlockedArg(0, 8, 0, func(_, lo, hi int) { called = true })
	ForBlockedArg(-3, 8, 0, func(_, lo, hi int) { called = true })
	if called {
		t.Fatal("body called for n<=0")
	}
}

func TestSetWorkersClamp(t *testing.T) {
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(-3)
	if Workers() != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(-3), want 1", Workers())
	}
	prev := SetWorkers(4)
	if prev != 1 {
		t.Fatalf("SetWorkers returned %d, want previous value 1", prev)
	}
}

func TestSingleWorkerRunsInline(t *testing.T) {
	old := SetWorkers(1)
	defer SetWorkers(old)
	sum := 0 // no synchronization: must be safe with one worker
	ForArg(100, 0, func(_, i int) { sum += i })
	if sum != 4950 {
		t.Fatalf("sum = %d, want 4950", sum)
	}
}

func TestForChunkedPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	ForChunkedArg(100, 0, func(_, lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
}
