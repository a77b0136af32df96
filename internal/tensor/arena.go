package tensor

import (
	"fmt"
	"unsafe"
)

// Arena is a size-bucketed workspace allocator for the training hot path.
// One arena backs one training step of one worker: layers Get step-lived
// buffers during forward/backward, and the step owner calls Release once
// the optimizer update is done, recycling every buffer for the next step.
// After a one-step warmup the steady state performs no heap allocation —
// the reuse discipline that makes sparsity pay off in wall-clock time
// instead of being eaten by GC churn.
//
// Ownership rules (see README "Memory model"):
//
//   - Whoever drives the step owns the arena and is the only caller of
//     Release. Layers Get; they never Release.
//   - Buffers returned by Get/Floats/... are valid until Release. Holding
//     a reference across Release reads recycled memory — saved-for-backward
//     state is safe because Backward runs before the step's Release.
//   - An arena is single-owner: all Get/Release calls must come from one
//     goroutine (parallel kernels may *fill* a buffer concurrently after it
//     was handed out). Concurrent workers each own a private arena.
//   - An arena is required: every forward, backward and decode takes a
//     non-nil *Arena, and no helper falls back to plain allocation. A
//     fresh NewArena hands out newly made, zeroed storage, so stepping on
//     a fresh arena per step is the bit-identity oracle for a warm,
//     reused one: any read of a stale recycled buffer shows up as a
//     difference between the two.
//
// Buffers are bucketed by capacity class (next power of two), so reuse
// works across the mixed shapes of one step, and Get zeroes the returned
// prefix — an arena tensor is indistinguishable from a freshly allocated
// one. GetDirty/FloatsDirty skip the zeroing for destinations that are
// fully overwritten.
type Arena struct {
	f32  bucketPool[float32]
	f64  bucketPool[float64]
	ints bucketPool[int]

	freeT []*Tensor // recycled tensor wrappers
	usedT []*Tensor

	// state holds per-key scratch that survives Release — every layer
	// keeps its saved-for-backward state here, keyed by itself, and none
	// on its struct. The unit of concurrency is therefore the arena: one
	// model may serve any number of concurrent forwards, each with its
	// own arena, with no per-invocation state shared between them.
	state map[any]any

	gets       int64 // buffers handed out since construction
	misses     int64 // Gets that had to allocate fresh storage
	allocBytes int64 // bytes of fresh storage those misses allocated
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// bucketPool is one element type's free lists, keyed by capacity class.
type bucketPool[E any] struct {
	free map[int][][]E
	used []pooled[E]
}

type pooled[E any] struct {
	class int
	s     []E
}

// arenaFloorBytes is the smallest bucket, measured in bytes so pools of
// different element widths bucket equivalently: tiny buffers share buckets
// without a wide-element pool (float64, int) over-allocating its floor or a
// narrow-element pool (fp16, int8) splitting it into sub-cacheline classes.
const arenaFloorBytes = 256

// sizeClass rounds n up to the bucket capacity: the next power of two, with
// the byte-based floor above converted to whole elements of the pool's
// width. elemBytes must be a power of two (true of every machine type).
func sizeClass(n, elemBytes int) int {
	c := arenaFloorBytes / elemBytes
	if c < 1 {
		c = 1
	}
	for c < n {
		c <<= 1
	}
	return c
}

func (p *bucketPool[E]) get(n int) (s []E, freshBytes int64) {
	var e E
	elem := int(unsafe.Sizeof(e))
	class := sizeClass(n, elem)
	if fl := p.free[class]; len(fl) > 0 {
		s = fl[len(fl)-1]
		p.free[class] = fl[:len(fl)-1]
	} else {
		s = make([]E, class)
		freshBytes = int64(class * elem)
	}
	p.used = append(p.used, pooled[E]{class, s})
	return s[:n], freshBytes
}

func (p *bucketPool[E]) release() {
	if len(p.used) == 0 {
		return
	}
	if p.free == nil {
		p.free = make(map[int][][]E)
	}
	for _, u := range p.used {
		p.free[u.class] = append(p.free[u.class], u.s[:u.class])
	}
	p.used = p.used[:0]
}

// Floats returns a zeroed []float32 of length n, recycled when possible.
func (a *Arena) Floats(n int) []float32 {
	s := a.FloatsDirty(n)
	clear(s)
	return s
}

// FloatsDirty is Floats without the zeroing — for buffers every element of
// which the caller overwrites before reading.
func (a *Arena) FloatsDirty(n int) []float32 {
	s, fresh := a.f32.get(n)
	a.count(fresh)
	return s
}

// Float64s returns a zeroed []float64 of length n.
func (a *Arena) Float64s(n int) []float64 {
	s, fresh := a.f64.get(n)
	a.count(fresh)
	clear(s)
	return s
}

// Ints returns a zeroed []int of length n.
func (a *Arena) Ints(n int) []int {
	s, fresh := a.ints.get(n)
	a.count(fresh)
	clear(s)
	return s
}

// Get returns a zeroed tensor of the given shape whose storage and wrapper
// are recycled across Release — the workspace equivalent of New.
func (a *Arena) Get(shape ...int) *Tensor {
	return a.wrap(a.Floats(checkedLen(shape)), shape)
}

// GetDirty is Get without the zeroing — only for tensors the caller fully
// overwrites before reading.
func (a *Arena) GetDirty(shape ...int) *Tensor {
	return a.wrap(a.FloatsDirty(checkedLen(shape)), shape)
}

// checkedLen validates dims and returns the element count. The panic
// message deliberately omits the shape slice: referencing it from the cold
// path would make every variadic Get call heap-allocate its shape.
func checkedLen(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panicNegativeDim(d)
		}
		n *= d
	}
	return n
}

// Wrap returns a tensor view over existing data whose wrapper (struct and
// shape slice) is recycled across Release cycles — the zero-alloc version
// of FromSlice for step-scoped views. The panic message deliberately omits
// the shape slice: formatting it would make the variadic escape and cost a
// heap allocation on every call.
func (a *Arena) Wrap(data []float32, shape ...int) *Tensor {
	if n := checkedLen(shape); n != len(data) {
		panic(fmt.Sprintf("tensor: Wrap shape needs %d elements, got %d", n, len(data)))
	}
	return a.wrap(data, shape)
}

func (a *Arena) wrap(data []float32, shape []int) *Tensor {
	var t *Tensor
	if k := len(a.freeT); k > 0 {
		t = a.freeT[k-1]
		a.freeT = a.freeT[:k-1]
	} else {
		t = &Tensor{}
	}
	t.shape = append(t.shape[:0], shape...)
	t.Data = data
	a.usedT = append(a.usedT, t)
	return t
}

// Release recycles every buffer and tensor handed out since the previous
// Release. Per-key state (StateFor) survives.
func (a *Arena) Release() {
	a.f32.release()
	a.f64.release()
	a.ints.release()
	for _, t := range a.usedT {
		t.Data = nil
		t.shape = t.shape[:0]
		a.freeT = append(a.freeT, t)
	}
	a.usedT = a.usedT[:0]
}

// StateFor returns the per-key scratch stored on the arena, creating it
// with mk on first use. Unlike Get buffers, state survives Release: layers
// use it for saved-for-backward containers whose slices amortize to zero
// allocations across steps. key is typically the layer pointer itself.
func (a *Arena) StateFor(key any, mk func() any) any {
	if a.state == nil {
		a.state = make(map[any]any)
	}
	v, ok := a.state[key]
	if !ok {
		v = mk()
		a.state[key] = v
	}
	return v
}

func (a *Arena) count(freshBytes int64) {
	a.gets++
	if freshBytes > 0 {
		a.misses++
		a.allocBytes += freshBytes
	}
}

// Gets reports how many buffers the arena has handed out in total.
func (a *Arena) Gets() int64 { return a.gets }

// Misses reports how many Gets allocated fresh storage — constant across
// steps once the arena is warm.
func (a *Arena) Misses() int64 { return a.misses }

// AllocBytes reports the bytes of fresh backing storage the arena has
// allocated since construction — its resident workspace footprint (pooled
// buffers are never freed, so this is also the high-water mark).
func (a *Arena) AllocBytes() int64 { return a.allocBytes }

func panicNegativeDim(d int) {
	panic(fmt.Sprintf("tensor: negative dimension %d in workspace shape", d))
}

// FloatsIn returns a zeroed []float32 of length n from ws.
func FloatsIn(ws *Arena, n int) []float32 { return ws.Floats(n) }

// CloneIn returns a copy of t backed by ws.
func CloneIn(ws *Arena, t *Tensor) *Tensor {
	c := ws.GetDirty(t.shape...)
	copy(c.Data, t.Data)
	return c
}
