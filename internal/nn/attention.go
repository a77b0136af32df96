package nn

import (
	"fmt"
	"math"

	"longexposure/internal/parallel"
	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// MultiHeadAttention implements causal self-attention with two execution
// paths sharing the projection layers:
//
//   - dense: full causal scores per head (the PEFT-library baseline), and
//   - sparse: per-head block-sparse layouts from the exposer/predictor,
//     combined online and executed by the combined multi-head operator
//     (sparse.MultiHead*, §VI-A). Head-specific masks are the paper's §IV
//     design — each head runs its own layout, and work is scheduled at
//     block, not head, granularity.
//
// The backward pass mirrors the forward structure, so the computational
// savings of a sparse layout apply to gradient computation too (§II-D).
//
// Saved-for-backward attention state does not live on the layer struct:
// each invocation's state is keyed by the workspace it ran with (the
// layer's own fallback state serves nil-workspace calls), removing the
// probsDense/probsSparse layer-struct sharing hazard. Note this makes the
// *attention state* invocation-scoped, not the whole layer: the Linear
// projections still cache their inputs on their structs, so the supported
// unit of concurrency remains one model replica per worker (as
// train.DataParallel arranges and the -race replica tests pin) — not one
// layer shared by concurrent steps.
type MultiHeadAttention struct {
	Dim, Heads, HeadDim int
	Wq, Wk, Wv, Wo      *Linear

	// def serves nil-workspace invocations (single-owner usage).
	def attnState
}

// attnState is one invocation's forward cache plus backward scratch. The
// [][]float32 headers and backing structs persist across steps (they live
// on the arena's per-layer state or on the layer's def), while the float
// buffers they point at are re-Got from the workspace every step.
type attnState struct {
	batch, seq int

	qh, kh, vh [][]float32 // per (b,h): [seq*headDim]
	ctx        [][]float32
	probsDense []*tensor.Tensor
	// hl is the online combination of the invocation's batch·heads
	// layouts, rebuilt in place every sparse forward; probsSparse holds
	// the probabilities over it (nil after a dense forward).
	hl          sparse.HeadLayouts
	probsSparse *sparse.CombinedSparse

	// Backward scratch headers (buffers are step-lived).
	dCtxH, dqh, dkh, dvh [][]float32
	dProbH, dScoreH      [][]float32
}

// state resolves the invocation state for a workspace: the arena-held
// per-layer state when ws is non-nil, the layer's own fallback otherwise.
func (a *MultiHeadAttention) state(ws *tensor.Arena) *attnState {
	if ws == nil {
		return &a.def
	}
	return ws.StateFor(a, func() any { return new(attnState) }).(*attnState)
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
// With a workspace the buffers are carved from one slab Got on the calling
// goroutine (so parallel fills never touch the arena); without one each
// buffer is a fresh make, exactly like the seed code. dirty skips zeroing
// on the arena path — only for buffers the caller fully overwrites.
func headBuffers(hdr [][]float32, bh, n int, ws *tensor.Arena, dirty bool) [][]float32 {
	if cap(hdr) < bh {
		hdr = make([][]float32, 0, bh)
	}
	hdr = hdr[:0]
	if ws == nil {
		for i := 0; i < bh; i++ {
			hdr = append(hdr, make([]float32, n))
		}
		return hdr
	}
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
	out := tensor.NewIn(ws, batch*seq, a.Dim)
	parallel.ForArg(batch*h, permuteArgs{heads, out.Data, a.Dim, hd, h, seq}, mergeHeadsItem)
	return out
}

// Forward runs attention over x: [batch*seq, dim]. layouts selects the
// execution path: nil runs dense causal attention; otherwise layouts[h] is
// head h's block layout (blk is the block size in tokens, and seq must be
// a multiple of blk). ws is the step workspace (nil allocates).
func (a *MultiHeadAttention) Forward(x *tensor.Tensor, batch, seq int, layouts []*sparse.Layout, blk int, ws *tensor.Arena) *tensor.Tensor {
	st := a.state(ws)
	st.batch, st.seq = batch, seq
	if layouts != nil {
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

	if layouts == nil {
		if cap(st.probsDense) < bh {
			st.probsDense = make([]*tensor.Tensor, 0, bh)
		}
		st.probsDense = st.probsDense[:0]
		for i := 0; i < bh; i++ {
			st.probsDense = append(st.probsDense, tensor.NewIn(ws, seq, seq))
		}
		st.probsSparse = nil
		parallel.ForArg(bh, denseFwdArgs{st.probsDense, ctx, st.qh, st.kh, st.vh, seq, a.HeadDim, scale}, denseFwdItem)
	} else {
		heads := st.hl.Heads[:0]
		for i := 0; i < bh; i++ {
			heads = append(heads, layouts[i%a.Heads])
		}
		st.hl.Reset(heads)
		st.probsSparse = sparse.NewCombinedSparseIn(ws, &st.hl, blk)
		st.probsDense = nil
		sparse.MultiHeadSDD(st.probsSparse, st.qh, st.kh, a.HeadDim)
		sparse.MultiHeadCausalSoftmax(st.probsSparse, scale)
		sparse.MultiHeadDSD(ctx, st.vh, st.probsSparse, a.HeadDim)
	}

	return a.Wo.Forward(a.mergeHeads(ctx, batch, seq, ws), ws)
}

// DenseProbs exposes the per-(batch,head) probability matrices of the last
// dense forward run with the given workspace (nil for workspace-less
// forwards) — the ground-truth signal the exposer derives head-specific
// masks from and the predictor trains against. Index is batch*Heads + head.
// Nil after a sparse forward.
func (a *MultiHeadAttention) DenseProbs(ws *tensor.Arena) []*tensor.Tensor {
	return a.state(ws).probsDense
}

// Backward propagates dOut: [batch*seq, dim] and returns dx. The sparse
// path computes gradients only on active blocks. ws must be the workspace
// the matching Forward ran with.
func (a *MultiHeadAttention) Backward(dOut *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	st := a.state(ws)
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

	if st.probsSparse == nil {
		st.dProbH = headBuffers(st.dProbH, bh, seq*seq, ws, false)
		st.dScoreH = headBuffers(st.dScoreH, bh, seq*seq, ws, false)
		parallel.ForArg(bh, denseBwdArgs{
			probs: st.probsDense, dProbH: st.dProbH, dScoreH: st.dScoreH,
			dCtxH: dCtxH, qh: st.qh, kh: st.kh, vh: st.vh,
			dqh: dqh, dkh: dkh, dvh: dvh, seq: seq, hd: hd, scale: scale,
		}, denseBwdItem)
	} else {
		p := st.probsSparse
		// dProb restricted to active blocks (SDD), turned into dScore in place.
		dScore := sparse.NewCombinedSparseIn(ws, p.HL, p.Blk)
		sparse.MultiHeadSDD(dScore, dCtxH, st.vh, hd)
		sparse.MultiHeadSoftmaxBackward(dScore, p, scale)
		sparse.MultiHeadDSD(dqh, st.kh, dScore, hd)
		sparse.MultiHeadDSDT(dkh, st.qh, dScore, hd)
		sparse.MultiHeadDSDT(dvh, dCtxH, p, hd)
	}

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

type denseFwdArgs struct {
	probs      []*tensor.Tensor
	ctx        [][]float32
	qh, kh, vh [][]float32
	seq, hd    int
	scale      float32
}

func denseFwdItem(a denseFwdArgs, i int) {
	sparse.DenseCausalAttentionInto(a.probs[i], a.ctx[i], a.qh[i], a.kh[i], a.vh[i], a.seq, a.hd, a.scale)
}

type denseBwdArgs struct {
	probs           []*tensor.Tensor
	dProbH, dScoreH [][]float32
	dCtxH           [][]float32
	qh, kh, vh      [][]float32
	dqh, dkh, dvh   [][]float32
	seq, hd         int
	scale           float32
}

func denseBwdItem(a denseBwdArgs, i int) {
	seq, hd := a.seq, a.hd
	p := a.probs[i] // [seq, seq]
	// dProb = dCtx·Vᵀ.
	dProb := a.dProbH[i]
	tensor.GemmTBRange(dProb, a.dCtxH[i], a.vh[i], hd, seq, seq, 0, seq)
	// Softmax backward row-wise, then score scale.
	dScore := a.dScoreH[i]
	for r := 0; r < seq; r++ {
		tensor.SoftmaxBackwardRow(dScore[r*seq:(r+1)*seq], p.Row(r), dProb[r*seq:(r+1)*seq])
	}
	for j := range dScore {
		dScore[j] *= a.scale
	}
	tensor.GemmRange(a.dqh[i], dScore, a.kh[i], seq, hd, seq, 0, seq)   // dQ = dS·K
	tensor.GemmTARange(a.dkh[i], dScore, a.qh[i], seq, seq, hd, 0, seq) // dK = dSᵀ·Q
	tensor.GemmTARange(a.dvh[i], p.Data, a.dCtxH[i], seq, seq, hd, 0, seq)
}
