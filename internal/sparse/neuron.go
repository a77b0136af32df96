package sparse

import (
	"fmt"

	"longexposure/internal/parallel"
	"longexposure/internal/tensor"
)

// Neuron-centric MLP kernels (§VI-B). An MLP block is FC1 [d → H] followed
// by an activation and FC2 [H → d]. When a hidden neuron h is predicted
// inactive, column h of FC1 and row h of FC2 both drop out of the
// computation. The kernels therefore take a list of active neuron *blocks*
// (indices into the H dimension divided by blk) and touch nothing else —
// no data format conversion, exactly the conventional tiling loop with the
// inactive tiles skipped.
//
// The paper's memory-coalescing optimization is reflected in the storage
// layouts: FC1 weights are stored column-major so an active neuron's input
// weights are contiguous, FC2 weights row-major so an active neuron's
// output weights are contiguous. Either way a run of adjacent active
// blocks is one contiguous [run·blk × d] weight slab, so the kernels hand
// all arithmetic to the shared tensor GEMM cores: each walks the block
// list as maximal runs (the last clamped to H) and makes one core call per
// run on its slab — GemmTBRange writing hidden[:, run] with row stride H,
// GemmRange reading it with lda = H, or GemmTARange reading it with m = H
// for the weight gradients. Per output element the cores perform a fixed
// k-ascending, zero-skipping float sequence, so the result does not depend
// on how the blocks group into runs or how rows split across workers.

// ColMajor stores a [In × Out] weight matrix column-by-column:
// column c occupies Data[c*In : (c+1)*In]. FC1 uses it.
type ColMajor struct {
	In, Out int
	Data    []float32
}

// NewColMajor allocates a zeroed column-major weight matrix.
func NewColMajor(in, out int) *ColMajor {
	return &ColMajor{In: in, Out: out, Data: make([]float32, in*out)}
}

// Col returns column c (the input weights of neuron c), contiguous.
func (w *ColMajor) Col(c int) []float32 { return w.Data[c*w.In : (c+1)*w.In] }

// SetFromRowMajor fills w from a row-major [In × Out] matrix.
func (w *ColMajor) SetFromRowMajor(rm []float32) {
	if len(rm) != w.In*w.Out {
		panic(fmt.Sprintf("sparse: SetFromRowMajor got %d values, want %d", len(rm), w.In*w.Out))
	}
	for r := 0; r < w.In; r++ {
		for c := 0; c < w.Out; c++ {
			w.Data[c*w.In+r] = rm[r*w.Out+c]
		}
	}
}

// RowMajor stores a [In × Out] weight matrix row-by-row:
// row r occupies Data[r*Out : (r+1)*Out]. FC2 uses it.
type RowMajor struct {
	In, Out int
	Data    []float32
}

// NewRowMajor allocates a zeroed row-major weight matrix.
func NewRowMajor(in, out int) *RowMajor {
	return &RowMajor{In: in, Out: out, Data: make([]float32, in*out)}
}

// Row returns row r (the output weights of neuron r), contiguous.
func (w *RowMajor) Row(r int) []float32 { return w.Data[r*w.Out : (r+1)*w.Out] }

// FC1Sparse computes hidden[:, active] += x · W1[:, active] for the active
// neuron blocks only. x is [tokens × d] (d == w.In), hidden is
// [tokens × H] (H == w.Out) with inactive columns untouched (callers keep
// them zero). Parallel over token rows.
func FC1Sparse(hidden, x []float32, tokens int, w *ColMajor, blocks []int, blk int) {
	parallel.ForChunkedArg(tokens, neuronCall{hidden, x, w.Data, blocks, blk, w.Out, w.In, tokens}, hiddenChunk)
}

// FC2Sparse computes out += hidden[:, active] · W2[active, :] for the active
// neuron blocks only. hidden is [tokens × H] (H == w.In), out is
// [tokens × d] (d == w.Out). Parallel over token rows.
func FC2Sparse(out, hidden []float32, tokens int, w *RowMajor, blocks []int, blk int) {
	parallel.ForChunkedArg(tokens, neuronCall{hidden, out, w.Data, blocks, blk, w.In, w.Out, tokens}, denseChunk)
}

// FC1GradInput computes dx += dHidden[:, active] · W1[:, active]ᵀ — the
// input gradient through FC1 restricted to active neurons. Parallel over
// token rows.
func FC1GradInput(dx, dHidden []float32, tokens int, w *ColMajor, blocks []int, blk int) {
	parallel.ForChunkedArg(tokens, neuronCall{dHidden, dx, w.Data, blocks, blk, w.Out, w.In, tokens}, denseChunk)
}

// FC2GradHidden computes dHidden[:, active] += dOut · W2[active, :]ᵀ — the
// hidden gradient through FC2 restricted to active neurons. Parallel over
// token rows.
func FC2GradHidden(dHidden, dOut []float32, tokens int, w *RowMajor, blocks []int, blk int) {
	parallel.ForChunkedArg(tokens, neuronCall{dHidden, dOut, w.Data, blocks, blk, w.In, w.Out, tokens}, hiddenChunk)
}

// FC1GradWeight accumulates dW1[:, active] += xᵀ · dHidden[:, active] into a
// column-major gradient buffer (used only when the backbone is trainable,
// i.e. the full fine-tuning baseline). Parallel over active blocks, so no
// two goroutines write the same column.
func FC1GradWeight(dW *ColMajor, x, dHidden []float32, tokens int, blocks []int, blk int) {
	parallel.ForChunkedArg(len(blocks), neuronCall{dHidden, x, dW.Data, blocks, blk, dW.Out, dW.In, tokens}, weightChunk)
}

// FC2GradWeight accumulates dW2[active, :] += hiddenᵀ[active, :] · dOut into
// a row-major gradient buffer. Parallel over active blocks.
func FC2GradWeight(dW *RowMajor, hidden, dOut []float32, tokens int, blocks []int, blk int) {
	parallel.ForChunkedArg(len(blocks), neuronCall{hidden, dOut, dW.Data, blocks, blk, dW.In, dW.Out, tokens}, weightChunk)
}

// neuronCall carries one kernel invocation by value, so the fan-out uses
// the static chunk functions below and a warm step allocates nothing (see
// parallel.ForChunkedArg). Every kernel relates the same three operands:
// hid, the [tokens × h] hidden-width matrix; dense, the [tokens × d]
// model-width matrix; and w, the [h × d] weight (or weight-gradient)
// storage, in which each neuron's d weights are one contiguous row.
type neuronCall struct {
	hid, dense, w     []float32
	blocks            []int
	blk, h, d, tokens int
}

// run returns the neuron range [h0, h1) covered by the maximal run of
// adjacent blocks starting at blocks[i], clamped to h, and the index of
// the block after the run.
func (g neuronCall) run(blocks []int, i int) (h0, h1, next int) {
	next = i + 1
	for next < len(blocks) && blocks[next] == blocks[next-1]+1 {
		next++
	}
	return blocks[i] * g.blk, min((blocks[next-1]+1)*g.blk, g.h), next
}

// hiddenChunk computes hid[:, run] += dense · w[run]ᵀ for token rows
// [lo, hi): FC1Sparse and FC2GradHidden.
func hiddenChunk(g neuronCall, lo, hi int) {
	for i := 0; i < len(g.blocks); {
		h0, h1, next := g.run(g.blocks, i)
		tensor.GemmTBRange(g.hid[h0:], g.dense, g.w[h0*g.d:h1*g.d], g.d, h1-h0, g.h, lo, hi)
		i = next
	}
}

// denseChunk computes dense += hid[:, run] · w[run] for token rows
// [lo, hi): FC2Sparse and FC1GradInput.
func denseChunk(g neuronCall, lo, hi int) {
	for i := 0; i < len(g.blocks); {
		h0, h1, next := g.run(g.blocks, i)
		tensor.GemmRange(g.dense, g.hid[h0:], g.w[h0*g.d:h1*g.d], h1-h0, g.d, g.h, lo, hi)
		i = next
	}
}

// weightChunk computes w[run] += hid[:, run]ᵀ · dense for the runs within
// blocks[lo:hi): FC1GradWeight and FC2GradWeight. Chunks own disjoint
// blocks, hence disjoint weight rows.
func weightChunk(g neuronCall, lo, hi int) {
	blocks := g.blocks[lo:hi]
	for i := 0; i < len(blocks); {
		h0, h1, next := g.run(blocks, i)
		tensor.GemmTARange(g.w[h0*g.d:h1*g.d], g.hid[h0:], g.dense, g.tokens, g.h, g.d, 0, h1-h0)
		i = next
	}
}

// AllBlocks returns the block list {0, 1, …, ⌈H/blk⌉−1}, the "fully dense"
// active set used by baselines and tests.
func AllBlocks(H, blk int) []int {
	n := (H + blk - 1) / blk
	bs := make([]int, n)
	for i := range bs {
		bs[i] = i
	}
	return bs
}
