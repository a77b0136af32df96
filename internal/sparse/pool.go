package sparse

import (
	"fmt"
	"slices"
	"sync"
)

// Pool caches pre-computed layout lookup tables for atomic patterns, keyed
// by (pattern, grid size). This is the paper's offline pool construction:
// data-layout indexing is the expensive part of sparse kernels, so the
// tables are built once and only combined (never rebuilt) at runtime.
type Pool struct {
	mu    sync.Mutex
	cache map[string]*Layout
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{cache: make(map[string]*Layout)}
}

// Get returns the layout of p on an nb-block grid, building and caching it
// on first use. Concurrent Get calls are safe.
func (pl *Pool) Get(p Pattern, nb int) *Layout {
	key := fmt.Sprintf("%s@%d", p.String(), nb)
	pl.mu.Lock()
	if l, ok := pl.cache[key]; ok {
		pl.mu.Unlock()
		return l
	}
	pl.mu.Unlock()
	l := p.Build(nb) // build outside the lock; duplicate builds are benign
	pl.mu.Lock()
	pl.cache[key] = l
	pl.mu.Unlock()
	return l
}

// Warm pre-builds every pattern in patterns at grid size nb — the offline
// construction step run before fine-tuning starts.
func (pl *Pool) Warm(patterns []Pattern, nb int) {
	for _, p := range patterns {
		pl.Get(p, nb)
	}
}

// Size reports how many layouts are cached.
func (pl *Pool) Size() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.cache)
}

// Task is one unit of block-sparse work after online combination: a single
// active block of a single head, with its storage offset pre-resolved. The
// basic unit of operation is the block, not the head, so the worker pool
// stays balanced even when heads have very different sparsity (§VI-A).
type Task struct {
	Head   int
	BR, BC int
	Off    int // block index into the combined data buffer
}

// HeadLayouts is the online combination of per-head layouts for one
// multi-head attention invocation. DataOff[h] is the block offset of head
// h's storage — the "offset shift" applied to each head's lookup table.
type HeadLayouts struct {
	Heads   []*Layout
	DataOff []int
	Tasks   []Task
	total   int
}

// Combine assembles per-head layouts into a flat, balanced task list.
// It is O(total active blocks); no layout is rebuilt.
func Combine(heads []*Layout) *HeadLayouts {
	hl := &HeadLayouts{}
	hl.Reset(heads)
	return hl
}

// Reset rebuilds hl in place as the combination of heads, recycling the
// DataOff and Tasks backing arrays — the per-step form of Combine, so a
// holder that combines every step allocates only when a step has more
// active blocks than any before it. heads may be hl.Heads[:0] re-appended.
func (hl *HeadLayouts) Reset(heads []*Layout) {
	hl.Heads = heads
	hl.DataOff = append(slices.Grow(hl.DataOff[:0], len(heads)+1), 0)
	for h, l := range heads {
		hl.DataOff = append(hl.DataOff, hl.DataOff[h]+l.NNZ())
	}
	hl.total = hl.DataOff[len(heads)]
	hl.Tasks = slices.Grow(hl.Tasks[:0], hl.total)
	for h, l := range heads {
		base := hl.DataOff[h]
		for br := 0; br < l.NB(); br++ {
			ptr := int(l.RowPtr(br))
			for i, bc := range l.RowBlocks(br) {
				hl.Tasks = append(hl.Tasks, Task{Head: h, BR: br, BC: int(bc), Off: base + ptr + i})
			}
		}
	}
}

// TotalBlocks returns the number of active blocks across all heads.
func (hl *HeadLayouts) TotalBlocks() int { return hl.total }

// NumHeads returns the head count.
func (hl *HeadLayouts) NumHeads() int { return len(hl.Heads) }

// Density returns active blocks / total causal-grid blocks over all heads.
func (hl *HeadLayouts) Density() float64 {
	if len(hl.Heads) == 0 {
		return 0
	}
	nb := hl.Heads[0].NB()
	return float64(hl.total) / float64(len(hl.Heads)*nb*nb)
}
