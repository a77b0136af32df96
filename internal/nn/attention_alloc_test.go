package nn

import (
	"testing"

	"longexposure/internal/parallel"
	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// TestSparseAttentionSteadyStateAllocs pins the memory contract of the
// sparse attention path: with a warm arena and one worker, a forward +
// backward allocates the same constant — the two CombinedSparse headers —
// whether the layouts hold 64 active blocks or 288: nothing scales with the
// active-block count (the combined buffers come from the arena, the task
// list is rebuilt in place).
func TestSparseAttentionSteadyStateAllocs(t *testing.T) {
	old := parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	const heads, hd, batch, nb, blk = 4, 8, 2, 8, 4
	seq := nb * blk
	r := tensor.NewRNG(77)
	x, dOut := tensor.New(batch*seq, heads*hd), tensor.New(batch*seq, heads*hd)
	r.FillNormal(x, 1)
	r.FillNormal(dOut, 1)

	measure := func(p sparse.Pattern) (allocs float64, blocks int) {
		a := NewMultiHeadAttention("attn", heads*hd, heads, tensor.NewRNG(78))
		layouts := make([]*sparse.Layout, heads)
		for h := range layouts {
			layouts[h] = p.Build(nb)
			blocks += batch * layouts[h].NNZ()
		}
		ws := tensor.NewArena()
		step := func() {
			a.Forward(x, batch, seq, layouts, blk, ws)
			a.Backward(dOut, ws)
			ws.Release()
		}
		step() // warm-up: arena fill, task-list backing
		return testing.AllocsPerRun(10, step), blocks
	}
	few, fewBlocks := measure(sparse.Pattern{Kind: sparse.KindLocal, Window: 1})
	many, manyBlocks := measure(sparse.Pattern{Kind: sparse.KindDense})
	t.Logf("allocs/step: %v at %d active blocks, %v at %d", few, fewBlocks, many, manyBlocks)
	if manyBlocks < 4*fewBlocks {
		t.Fatalf("layouts too similar to show scaling: %d vs %d blocks", fewBlocks, manyBlocks)
	}
	if few != many || many > 2 {
		t.Fatalf("sparse attention allocates %v/step at %d blocks and %v/step at %d — want the same ≤ 2",
			few, fewBlocks, many, manyBlocks)
	}
}

// TestSparseMLPSteadyStateAllocs pins the same contract for the neuron-block
// MLP path: with a warm arena, one worker, and W1/W2 trainable (so all six
// neuron kernels run, weight gradients included), a sparse forward +
// backward allocates nothing — the kernels reach the GEMM cores through
// static chunk functions, with no per-call closure.
func TestSparseMLPSteadyStateAllocs(t *testing.T) {
	old := parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	const tokens, dim, hidden, blk = 12, 16, 64, 8
	blocks := []int{0, 1, 3, 6}
	r := tensor.NewRNG(79)
	m := NewMLP("mlp", dim, hidden, ActReLU, r)
	x, dOut := tensor.New(tokens, dim), tensor.New(tokens, dim)
	r.FillNormal(x, 1)
	r.FillNormal(dOut, 1)
	for _, p := range m.Params() {
		if p.Frozen || p.Grad == nil {
			t.Fatalf("%s: want a trainable parameter with a gradient buffer", p.Name)
		}
	}
	ws := tensor.NewArena()
	step := func() {
		m.Forward(x, blocks, blk, ws)
		m.Backward(dOut, ws)
		ws.Release()
	}
	step() // warm-up: arena fill
	if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
		t.Fatalf("sparse MLP forward+backward allocates %v/step, want 0", allocs)
	}
}
