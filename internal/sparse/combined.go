package sparse

import (
	"fmt"

	"longexposure/internal/parallel"
	"longexposure/internal/tensor"
)

// CombinedSparse holds the block-sparse score matrices of *all* heads of
// one attention invocation in a single buffer, indexed by the online
// combination's offset table. Work is scheduled over the flat Task list at
// block granularity, so heads with very different sparsity cannot imbalance
// the workers — §VI-A's "the basic unit of operation is the block rather
// than the individual head".
//
// The MultiHead* passes below are the attention operator of the fine-tune
// step (nn.MultiHeadAttention, forward and backward). Each keeps its own
// schedule — tasks, or (head, block-row/column) pairs — and hands every
// block product to the tensor.Gemm*Range core the serial per-head kernel
// of attn.go uses, in the same per-row block order, so the two agree bit
// for bit.
type CombinedSparse struct {
	HL   *HeadLayouts
	Blk  int
	Data []float32 // TotalBlocks · Blk²
}

// NewCombinedSparseIn takes the combined buffer from the workspace arena
// (keyed, like all arena storage, by the buffer's size class — layouts of
// equal total active-block count share recycled storage); ws == nil
// allocates fresh zeroed storage.
func NewCombinedSparseIn(ws *tensor.Arena, hl *HeadLayouts, blk int) *CombinedSparse {
	return &CombinedSparse{HL: hl, Blk: blk, Data: tensor.FloatsIn(ws, hl.TotalBlocks()*blk*blk)}
}

// block returns the storage of the combined block offset.
func (c *CombinedSparse) block(off int) []float32 {
	bb := c.Blk * c.Blk
	return c.Data[off*bb : (off+1)*bb]
}

// HeadView adapts one head's slice of the combined buffer to the
// single-head BlockSparse type, sharing storage. Row-oriented passes
// (softmax, its backward) run through views; block-oriented passes run
// over the task list.
func (c *CombinedSparse) HeadView(h int) *BlockSparse {
	bb := c.Blk * c.Blk
	lo, hi := c.HL.DataOff[h]*bb, c.HL.DataOff[h+1]*bb
	return &BlockSparse{L: c.HL.Heads[h], Blk: c.Blk, Data: c.Data[lo:hi]}
}

// mhArgs carries one combined pass's operands by value through the
// allocation-free parallel.For*Arg fan-outs: c is the sparse operand, x and
// y the per-head dense ones ([s·n] row-major each), nb the block-grid side
// of the (head, block-row/column) passes, p the stored probabilities of the
// softmax backward.
type mhArgs struct {
	c, p  *CombinedSparse
	x, y  [][]float32
	n, nb int
	scale float32
}

// checkHeads panics unless every per-head buffer list has one entry per
// combined head.
func (c *CombinedSparse) checkHeads(op string, bufs ...[][]float32) {
	for _, b := range bufs {
		if len(b) != c.HL.NumHeads() {
			panic(fmt.Sprintf("sparse: %s got %d buffers for %d heads", op, len(b), c.HL.NumHeads()))
		}
	}
}

// nb returns the block-grid side shared by every combined head.
func (c *CombinedSparse) nb() int {
	if c.HL.NumHeads() == 0 {
		return 0
	}
	return c.HL.Heads[0].NB()
}

// MultiHeadSDD computes every head's active blocks of a[h]·b[h]ᵀ (a[h],
// b[h]: [s·k] row-major) — the scores Q·Kᵀ and, in backward, dProb =
// dOut·Vᵀ — parallelized over the combined task list. Each task is one
// block product on the shared tensor.GemmTBRange core, exactly as the
// serial SDD issues it, so scheduling is balanced regardless of per-head
// sparsity skew and the result is bit-identical to per-head SDD.
func MultiHeadSDD(c *CombinedSparse, a, b [][]float32, k int) {
	c.checkHeads("MultiHeadSDD", a, b)
	parallel.ForChunkedArg(len(c.HL.Tasks), mhArgs{c: c, x: a, y: b, n: k}, func(g mhArgs, lo, hi int) {
		blk, k := g.c.Blk, g.n
		for _, t := range g.c.HL.Tasks[lo:hi] {
			tensor.GemmTBRange(g.c.block(t.Off),
				g.x[t.Head][t.BR*blk*k:(t.BR+1)*blk*k], g.y[t.Head][t.BC*blk*k:(t.BC+1)*blk*k], k, blk, blk, 0, blk)
		}
	})
}

// MultiHeadCausalSoftmax applies the causal softmax to every head,
// parallelized over heads (rows are the unit of coupling, and rows never
// cross heads).
func MultiHeadCausalSoftmax(c *CombinedSparse, scale float32) {
	parallel.ForArg(c.HL.NumHeads(), mhArgs{c: c, scale: scale}, func(g mhArgs, h int) {
		CausalSoftmax(g.c.HeadView(h), g.scale)
	})
}

// MultiHeadSoftmaxBackward turns every head's dProb into dScore in place,
// given the stored probabilities p over the same combination (see
// SoftmaxBackward); parallelized over heads like the forward softmax.
func MultiHeadSoftmaxBackward(dProb, p *CombinedSparse, scale float32) {
	parallel.ForArg(p.HL.NumHeads(), mhArgs{c: dProb, p: p, scale: scale}, func(g mhArgs, h int) {
		SoftmaxBackward(g.c.HeadView(h), g.p.HeadView(h), g.scale)
	})
}

// MultiHeadDSD computes out[h] += c_h·b[h] for every head (b[h], out[h]:
// [s·n]) — probabilities·V and, in backward, dScores·K — parallelized over
// (head, block-row) pairs: each pair owns a disjoint slice of its head's
// output, so the pass is race-free and finer-grained than per-head
// scheduling. Block products run on tensor.GemmRange in RowBlocks order,
// as in the serial DSD.
func MultiHeadDSD(out, b [][]float32, c *CombinedSparse, n int) {
	c.checkHeads("MultiHeadDSD", out, b)
	nb := c.nb()
	parallel.ForArg(c.HL.NumHeads()*nb, mhArgs{c: c, x: out, y: b, n: n, nb: nb}, func(g mhArgs, idx int) {
		blk, n := g.c.Blk, g.n
		h, br := idx/g.nb, idx%g.nb
		l := g.c.HL.Heads[h]
		dst := g.x[h][br*blk*n : (br+1)*blk*n]
		off := g.c.HL.DataOff[h] + int(l.RowPtr(br))
		for i, bc := range l.RowBlocks(br) {
			tensor.GemmRange(dst, g.c.block(off+i), g.y[h][int(bc)*blk*n:(int(bc)+1)*blk*n], blk, n, blk, 0, blk)
		}
	})
}

// MultiHeadDSDT computes out[h] += c_hᵀ·b[h] for every head — dV =
// probabilitiesᵀ·dOut and dK = dScoresᵀ·Q — parallelized over (head,
// block-column) pairs, each owning a disjoint slice of its head's output.
// Block products run on tensor.GemmTARange in ColBlocks order, as in the
// serial DSDT.
func MultiHeadDSDT(out, b [][]float32, c *CombinedSparse, n int) {
	c.checkHeads("MultiHeadDSDT", out, b)
	nb := c.nb()
	parallel.ForArg(c.HL.NumHeads()*nb, mhArgs{c: c, x: out, y: b, n: n, nb: nb}, func(g mhArgs, idx int) {
		blk, n := g.c.Blk, g.n
		h, bc := idx/g.nb, idx%g.nb
		l := g.c.HL.Heads[h]
		dst := g.x[h][bc*blk*n : (bc+1)*blk*n]
		ids := l.ColBlockIDs(bc)
		for t, br := range l.ColBlocks(bc) {
			tensor.GemmTARange(dst, g.c.block(g.c.HL.DataOff[h]+int(ids[t])), g.y[h][int(br)*blk*n:(int(br)+1)*blk*n], blk, blk, n, 0, blk)
		}
	})
}
