// Package parallel provides the shared-memory parallelism primitives used by
// every compute kernel in the repository: a process-wide worker pool and
// deterministic parallel-for helpers.
//
// The kernels in internal/tensor and internal/sparse are data-parallel over
// independent output regions: each call splits an index range into at most
// Workers() contiguous chunks, runs a plain function on every chunk with
// the call's operands passed by value (so a warm single-worker call
// allocates nothing), and joins the chunks with a sync.WaitGroup. Chunking
// is deterministic: the same n and the same worker count always produce the
// same chunk boundaries, which keeps reductions reproducible.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the pool. It defaults to GOMAXPROCS and can be lowered
// (never below 1) with SetWorkers, e.g. to simulate a smaller machine.
var maxWorkers atomic.Int64

func init() {
	maxWorkers.Store(int64(runtime.GOMAXPROCS(0)))
}

// SetWorkers sets the number of workers the parallel-for helpers use.
// Values below 1 are clamped to 1. It returns the previous setting.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(maxWorkers.Swap(int64(n)))
}

// Workers reports the current worker count.
func Workers() int { return int(maxWorkers.Load()) }

// ForChunkedArg splits [0, n) into at most Workers() contiguous chunks and
// runs body(arg, lo, hi) for each chunk, in parallel. A chunk is never
// empty, n <= 0 runs nothing, and panics in body propagate to the caller.
// With a single worker (or n == 1) the body runs on the calling goroutine.
//
// body should be a plain top-level function (or a closure that captures
// nothing), with all per-call state carried in arg by value: a capturing
// closure would be heap-allocated at its creation site even on the
// single-worker path, since Go's escape analysis is path-insensitive.
// Called that way, neither body nor arg escapes on the fast path and a warm
// training step performs no heap allocation; with multiple workers each
// spawned chunk captures one copy of arg.
func ForChunkedArg[T any](n int, arg T, body func(arg T, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		body(arg, 0, n)
		return
	}
	forChunkedArgSlow(n, w, arg, body)
}

// forChunkedArgSlow holds the goroutine fan-out apart from the fast path:
// its WaitGroup/panic-capture locals are moved to the heap by the escape
// analysis, and keeping them here (out of the inlinable fast path) is what
// makes the single-worker ForChunkedArg call truly allocation-free.
func forChunkedArgSlow[T any](n, w int, arg T, body func(arg T, lo, hi int)) {
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	var firstPanic atomic.Value
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					firstPanic.CompareAndSwap(nil, r)
				}
			}()
			body(arg, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	if p := firstPanic.Load(); p != nil {
		panic(p)
	}
}

// ForArg runs body(arg, i) for every i in [0, n) across the worker pool,
// chunked exactly like ForChunkedArg so adjacent indices land on the same
// worker. Implemented directly rather than by delegation: referencing a
// generic function as a value binds its dictionary at runtime, which
// itself allocates.
func ForArg[T any](n int, arg T, body func(arg T, i int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			body(arg, i)
		}
		return
	}
	// The slow path may allocate freely (goroutine spawns dwarf an adapter
	// struct), so it reuses forChunkedArgSlow instead of repeating the
	// fan-out. Chunk boundaries are unchanged.
	forChunkedArgSlow(n, w, forItem[T]{arg, body}, forItemChunk[T])
}

// forItem adapts a per-index body onto the chunked slow path.
type forItem[T any] struct {
	arg  T
	body func(arg T, i int)
}

func forItemChunk[T any](p forItem[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		p.body(p.arg, i)
	}
}

// ForBlockedArg splits [0, n) into at most Workers() contiguous chunks whose
// boundaries are multiples of block (except the final boundary, which is n)
// and runs body(arg, lo, hi) for each chunk, in parallel. It is the
// tile-aligned variant of ForChunkedArg: kernels that amortize per-call
// setup over rows (e.g. the packed-panel GEMM cores) use it so no worker
// receives a sliver smaller than one tile. The tile count is chunked
// exactly like ForChunkedArg, and each chunk's half-open range is scaled
// back to elements with the final boundary clamped to n. Block values
// below 1 are treated as 1.
func ForBlockedArg[T any](n, block int, arg T, body func(arg T, lo, hi int)) {
	if n <= 0 {
		return
	}
	if block < 1 {
		block = 1
	}
	tiles := (n + block - 1) / block
	w := Workers()
	if w > tiles {
		w = tiles
	}
	if w == 1 {
		body(arg, 0, n)
		return
	}
	// Slow path: chunk the tile count exactly as ForChunkedArg would, mapping
	// each tile chunk back to a clamped element range.
	forChunkedArgSlow(tiles, w, forBlock[T]{n, block, arg, body}, forBlockChunk[T])
}

// forBlock adapts tile-aligned chunking onto the chunked slow path.
type forBlock[T any] struct {
	n, block int
	arg      T
	body     func(arg T, lo, hi int)
}

func forBlockChunk[T any](p forBlock[T], tLo, tHi int) {
	hi := tHi * p.block
	if hi > p.n {
		hi = p.n
	}
	p.body(p.arg, tLo*p.block, hi)
}

// ReduceFloat64Arg computes a deterministic parallel reduction over [0, n):
// each chunk accumulates body(arg, i) into a partial sum in index order,
// then the partials are combined in chunk order. The result is therefore
// independent of scheduling (though it may differ from a single serial sum
// by the usual floating-point reassociation across the fixed chunk
// boundaries). body should be a plain function with per-call state carried
// in arg, so the call site allocates nothing (see ForChunkedArg).
func ReduceFloat64Arg[T any](n int, arg T, body func(arg T, i int) float64) float64 {
	if n <= 0 {
		return 0
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		var s float64
		for i := 0; i < n; i++ {
			s += body(arg, i)
		}
		return s
	}
	chunk := (n + w - 1) / w
	nChunks := (n + chunk - 1) / chunk
	partials := make([]float64, nChunks)
	var wg sync.WaitGroup
	for c := 0; c < nChunks; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			var s float64
			for i := lo; i < hi; i++ {
				s += body(arg, i)
			}
			partials[c] = s
		}(c, lo, hi)
	}
	wg.Wait()
	var s float64
	for _, p := range partials {
		s += p
	}
	return s
}
