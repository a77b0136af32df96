package nn

import (
	"fmt"
	"math"

	"longexposure/internal/parallel"
	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// MultiHeadAttention implements causal self-attention with one execution
// path: the combined multi-head block operator (sparse.MultiHead*, §VI-A).
// Each head runs its own block layout — the per-head masks from the
// exposer/predictor (the paper's §IV design) or, for dense attention (the
// PEFT-library baseline), the full causal layout — and work is scheduled
// at block, not head, granularity. Dense attention therefore never
// computes a score above the diagonal blocks.
//
// The backward pass mirrors the forward structure, so the computational
// savings of a sparse layout apply to gradient computation too (§II-D).
//
// Like every layer, attention keeps its saved-for-backward state in the
// arena it ran with (stateOf), not on its struct. The unit of concurrency
// is the arena, not the model replica: concurrent steps may share one
// model, each with a private arena.
type MultiHeadAttention struct {
	Dim, Heads, HeadDim int
	Wq, Wk, Wv, Wo      *Linear
}

// attnState is one invocation's forward cache plus backward scratch. The
// [][]float32 headers and backing structs persist across steps (they live
// in the arena's per-layer state), while the float buffers they point at
// are re-Got from the workspace every step.
type attnState struct {
	batch, seq int

	qh, kh, vh [][]float32 // per (b,h): [seq*headDim]
	ctx        [][]float32
	// hl is the online combination of the invocation's batch·heads
	// layouts, rebuilt in place every forward; probs holds the
	// probabilities over it and dScore the backward's score gradient.
	// Both headers live here by value, so a step allocates neither.
	hl            sparse.HeadLayouts
	probs, dScore sparse.CombinedSparse
	// dense records that the last forward ran the full causal layout
	// (nil layouts); causal caches that layout for its block count.
	dense  bool
	causal *sparse.Layout

	// Backward scratch headers (buffers are step-lived).
	dCtxH, dqh, dkh, dvh [][]float32
}

// NewMultiHeadAttention constructs the four projection layers.
func NewMultiHeadAttention(name string, dim, heads int, rng *tensor.RNG) *MultiHeadAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: dim %d not divisible by heads %d", dim, heads))
	}
	return &MultiHeadAttention{
		Dim:     dim,
		Heads:   heads,
		HeadDim: dim / heads,
		Wq:      NewLinear(name+".q_proj", dim, dim, rng),
		Wk:      NewLinear(name+".k_proj", dim, dim, rng),
		Wv:      NewLinear(name+".v_proj", dim, dim, rng),
		Wo:      NewLinear(name+".out_proj", dim, dim, rng),
	}
}

// Params returns all projection parameters.
func (a *MultiHeadAttention) Params() ParamSet {
	var ps ParamSet
	for _, l := range []*Linear{a.Wq, a.Wk, a.Wv, a.Wo} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// headBuffers returns bh buffers of n floats reusing the header slice hdr.
// The buffers are carved from one slab Got on the calling goroutine, so
// parallel fills never touch the arena. dirty skips zeroing — only for
// buffers the caller fully overwrites.
func headBuffers(hdr [][]float32, bh, n int, ws *tensor.Arena, dirty bool) [][]float32 {
	if cap(hdr) < bh {
		hdr = make([][]float32, 0, bh)
	}
	hdr = hdr[:0]
	var slab []float32
	if dirty {
		slab = ws.FloatsDirty(bh * n)
	} else {
		slab = ws.Floats(bh * n)
	}
	for i := 0; i < bh; i++ {
		hdr = append(hdr, slab[i*n:(i+1)*n])
	}
	return hdr
}

// splitHeads copies a [batch*seq, dim] tensor into per-(batch, head)
// contiguous [seq, headDim] buffers — the permute step of multi-head
// attention. hdr is the reused header slice of the destination.
func (a *MultiHeadAttention) splitHeads(hdr [][]float32, x *tensor.Tensor, batch, seq int, ws *tensor.Arena) [][]float32 {
	h, hd := a.Heads, a.HeadDim
	out := headBuffers(hdr, batch*h, seq*hd, ws, true)
	parallel.ForArg(batch*h, permuteArgs{out, x.Data, a.Dim, hd, h, seq}, splitHeadsItem)
	return out
}

// mergeHeads inverts splitHeads.
func (a *MultiHeadAttention) mergeHeads(heads [][]float32, batch, seq int, ws *tensor.Arena) *tensor.Tensor {
	h, hd := a.Heads, a.HeadDim
	out := ws.Get(batch*seq, a.Dim)
	parallel.ForArg(batch*h, permuteArgs{heads, out.Data, a.Dim, hd, h, seq}, mergeHeadsItem)
	return out
}

// Forward runs attention over x: [batch*seq, dim]. layouts[h] is head h's
// block layout (blk is the block size in tokens, and seq must be a
// multiple of blk); nil layouts run dense causal attention, the full
// causal layout at sparse.DenseBlk(seq), and ignore blk. ws is the step
// workspace.
func (a *MultiHeadAttention) Forward(x *tensor.Tensor, batch, seq int, layouts []*sparse.Layout, blk int, ws *tensor.Arena) *tensor.Tensor {
	st := stateOf[attnState](ws, a)
	st.batch, st.seq, st.dense = batch, seq, layouts == nil
	if st.dense {
		blk = sparse.DenseBlk(seq)
		if nb := seq / blk; st.causal == nil || st.causal.NB() != nb {
			st.causal = sparse.Pattern{Kind: sparse.KindDense}.Build(nb)
		}
	} else {
		if len(layouts) != a.Heads {
			panic(fmt.Sprintf("nn: %d layouts for %d heads", len(layouts), a.Heads))
		}
		if seq%blk != 0 {
			panic(fmt.Sprintf("nn: seq %d not a multiple of block size %d", seq, blk))
		}
	}

	q := a.Wq.Forward(x, ws)
	k := a.Wk.Forward(x, ws)
	v := a.Wv.Forward(x, ws)
	st.qh = a.splitHeads(st.qh, q, batch, seq, ws)
	st.kh = a.splitHeads(st.kh, k, batch, seq, ws)
	st.vh = a.splitHeads(st.vh, v, batch, seq, ws)

	bh := batch * a.Heads
	st.ctx = headBuffers(st.ctx, bh, seq*a.HeadDim, ws, false)
	ctx := st.ctx
	scale := float32(1 / math.Sqrt(float64(a.HeadDim)))

	heads := st.hl.Heads[:0]
	for i := 0; i < bh; i++ {
		if st.dense {
			heads = append(heads, st.causal)
		} else {
			heads = append(heads, layouts[i%a.Heads])
		}
	}
	st.hl.Reset(heads)
	st.probs = sparse.CombinedSparse{HL: &st.hl, Blk: blk, Data: ws.Floats(st.hl.TotalBlocks() * blk * blk)}
	sparse.MultiHeadSDD(&st.probs, st.qh, st.kh, a.HeadDim)
	sparse.MultiHeadCausalSoftmax(&st.probs, scale)
	sparse.MultiHeadDSD(ctx, st.vh, &st.probs, a.HeadDim)

	return a.Wo.Forward(a.mergeHeads(ctx, batch, seq, ws), ws)
}

// DenseProbs returns the per-(batch,head) [seq, seq] probability matrices
// of the last dense forward run with the given workspace — the
// ground-truth signal the exposer derives head-specific masks from and the
// predictor trains against. Index is batch*Heads + head. The matrices are
// fresh copies materialized from the forward's blocks (zero above the
// diagonal), made off the step path. Nil after a sparse forward.
func (a *MultiHeadAttention) DenseProbs(ws *tensor.Arena) []*tensor.Tensor {
	st := stateOf[attnState](ws, a)
	if !st.dense {
		return nil
	}
	out := make([]*tensor.Tensor, st.hl.NumHeads())
	for i := range out {
		out[i] = st.probs.HeadView(i).ToDense()
	}
	return out
}

// Backward propagates dOut: [batch*seq, dim] and returns dx, computing
// gradients only on the forward's active blocks. ws must be the workspace
// the matching Forward ran with.
func (a *MultiHeadAttention) Backward(dOut *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	st := stateOf[attnState](ws, a)
	batch, seq, hd := st.batch, st.seq, a.HeadDim
	scale := float32(1 / math.Sqrt(float64(hd)))

	dCtx := a.Wo.Backward(dOut, ws)
	st.dCtxH = a.splitHeads(st.dCtxH, dCtx, batch, seq, ws)
	dCtxH := st.dCtxH

	bh := batch * a.Heads
	st.dqh = headBuffers(st.dqh, bh, seq*hd, ws, false)
	st.dkh = headBuffers(st.dkh, bh, seq*hd, ws, false)
	st.dvh = headBuffers(st.dvh, bh, seq*hd, ws, false)
	dqh, dkh, dvh := st.dqh, st.dkh, st.dvh

	p, dScore := &st.probs, &st.dScore
	// dProb restricted to active blocks (SDD), turned into dScore in place.
	*dScore = sparse.CombinedSparse{HL: p.HL, Blk: p.Blk, Data: ws.Floats(len(p.Data))}
	sparse.MultiHeadSDD(dScore, dCtxH, st.vh, hd)
	sparse.MultiHeadSoftmaxBackward(dScore, p, scale)
	sparse.MultiHeadDSD(dqh, st.kh, dScore, hd)
	sparse.MultiHeadDSDT(dkh, st.qh, dScore, hd)
	sparse.MultiHeadDSDT(dvh, dCtxH, p, hd)

	dq := a.mergeHeads(dqh, batch, seq, ws)
	dk := a.mergeHeads(dkh, batch, seq, ws)
	dv := a.mergeHeads(dvh, batch, seq, ws)
	dx := a.Wq.Backward(dq, ws)
	tensor.AddInto(dx, a.Wk.Backward(dk, ws))
	tensor.AddInto(dx, a.Wv.Backward(dv, ws))
	return dx
}

// The static parallel bodies below carry their state in small arg structs
// so the per-(batch, head) fan-outs allocate nothing per call (see
// parallel.ForArg). Their loops are verbatim the former closures.

// permuteArgs serves both split (heads = dst) and merge (heads = src).
type permuteArgs struct {
	heads   [][]float32
	flat    []float32
	dim, hd int
	h, seq  int
}

func splitHeadsItem(a permuteArgs, bh int) {
	bi, hi := bh/a.h, bh%a.h
	buf := a.heads[bh]
	for si := 0; si < a.seq; si++ {
		src := a.flat[(bi*a.seq+si)*a.dim+hi*a.hd : (bi*a.seq+si)*a.dim+(hi+1)*a.hd]
		copy(buf[si*a.hd:(si+1)*a.hd], src)
	}
}

func mergeHeadsItem(a permuteArgs, bh int) {
	bi, hi := bh/a.h, bh%a.h
	buf := a.heads[bh]
	for si := 0; si < a.seq; si++ {
		dst := a.flat[(bi*a.seq+si)*a.dim+hi*a.hd : (bi*a.seq+si)*a.dim+(hi+1)*a.hd]
		copy(dst, buf[si*a.hd:(si+1)*a.hd])
	}
}
