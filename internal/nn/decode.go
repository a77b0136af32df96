package nn

import (
	"fmt"
	"math"

	"longexposure/internal/tensor"
)

// This file is the serving-side forward path: incremental decoding with a
// per-sequence KV cache, bit-identical to re-running Forward over the full
// prefix every token (the naive Generate loop). Bit-identity holds because
// every kernel in the training forward is per-row independent — a row's
// result depends only on that row's input and the weights, never on how
// many rows share the call — and the tiled/naive GEMM cores are pinned
// bit-identical. The decode path recomputes exactly the rows the naive
// path would have appended, against cached K/V rows that are themselves
// bit-equal to what a full re-run would produce.
//
// The same independence makes bit-identity hold across batch composition:
// DecodeBatch stacks many sequences' rows — each with its own KVCache,
// DecodeAdapter and plan — through the shared base, and a sequence's
// logits equal decoding it alone, whichever sequences share its step.
//
// Decode runs the layers' own forwards — LayerNorm.Forward, MLP.Forward
// and the base product Linear.Forward is built on — so there is one
// forward per layer kind. What they save lands in the step arena, never on
// the layer structs: the model is read-only weights, so every active
// sequence decodes in one stacked step on one shared frozen base, and
// concurrent decoders each bring their own arena. That is the
// multi-adapter serving structure internal/infer builds on.

// KVCache holds one sequence's cached attention keys and values: per layer,
// per head, a packed [MaxSeq·headDim] buffer. Len counts cached positions
// (prompt-tuning rows included). Buffers are plainly allocated — a cache
// outlives every step arena the sequence uses.
type KVCache struct {
	Heads, HeadDim, MaxSeq int
	Len                    int

	layers []kvLayer
}

type kvLayer struct {
	k, v [][]float32 // [head][MaxSeq*headDim]
}

// NewKVCache allocates an empty cache sized for the model.
func (m *Transformer) NewKVCache() *KVCache {
	hd := m.Cfg.Dim / m.Cfg.Heads
	c := &KVCache{Heads: m.Cfg.Heads, HeadDim: hd, MaxSeq: m.Cfg.MaxSeq}
	c.layers = make([]kvLayer, m.Cfg.Layers)
	for li := range c.layers {
		c.layers[li].k = make([][]float32, c.Heads)
		c.layers[li].v = make([][]float32, c.Heads)
		for h := 0; h < c.Heads; h++ {
			c.layers[li].k[h] = make([]float32, c.MaxSeq*hd)
			c.layers[li].v[h] = make([]float32, c.MaxSeq*hd)
		}
	}
	return c
}

// Reset empties the cache for reuse by a new sequence.
func (c *KVCache) Reset() { c.Len = 0 }

// LoRAPair is one linear layer's low-rank delta: y += Scale·(x·A)·B.
type LoRAPair struct {
	A, B  *tensor.Tensor // A: [in, r], B: [r, out]
	Scale float32
}

// BottleneckWeights is one Houlsby adapter's weight set:
// y = z + (relu(z·DownW + DownB))·UpW + UpB.
type BottleneckWeights struct {
	DownW, DownB *tensor.Tensor // [dim, bottleneck], [bottleneck]
	UpW, UpB     *tensor.Tensor // [bottleneck, dim], [dim]
}

// LayerAdapter carries one transformer block's adapter weights. Nil fields
// leave that injection point at the frozen base behavior.
type LayerAdapter struct {
	Q, V       *LoRAPair          // attention Q/V projection LoRA
	AttnScaled *BottleneckWeights // bottleneck after the attention sublayer
	MLPScaled  *BottleneckWeights // bottleneck after the MLP sublayer
}

// DecodeAdapter is a detachable PEFT delta applied functionally during
// decoding — the base model's weights are never touched, so different
// requests can decode with different adapters in one step on one shared
// base. A nil *DecodeAdapter decodes the plain base.
type DecodeAdapter struct {
	Prompt *tensor.Tensor // [P, dim] trainable prompt (P-Tuning), or nil
	Layers []LayerAdapter // len == Cfg.Layers, or nil
}

// PromptLen returns the number of virtual prompt rows the adapter prepends.
func (a *DecodeAdapter) PromptLen() int {
	if a == nil || a.Prompt == nil {
		return 0
	}
	return a.Prompt.Dim(0)
}

func (a *DecodeAdapter) layer(li int) *LayerAdapter {
	if a == nil || a.Layers == nil {
		return nil
	}
	return &a.Layers[li]
}

// SelfAdapter views the model's own attached PEFT modules (LoRA branches,
// bottleneck adapters, trainable prompt) as a DecodeAdapter, so a
// fine-tuned model decodes through the serving path without extracting an
// artifact first. The returned adapter aliases the model's weights.
func (m *Transformer) SelfAdapter() *DecodeAdapter {
	ad := &DecodeAdapter{}
	if m.Prompt != nil {
		ad.Prompt = m.Prompt.W
	}
	ad.Layers = make([]LayerAdapter, len(m.Blocks))
	for li, b := range m.Blocks {
		la := &ad.Layers[li]
		if b.Attn.Wq.HasLoRA() {
			la.Q = &LoRAPair{A: b.Attn.Wq.LoRAA.W, B: b.Attn.Wq.LoRAB.W, Scale: b.Attn.Wq.LoRAScale}
		}
		if b.Attn.Wv.HasLoRA() {
			la.V = &LoRAPair{A: b.Attn.Wv.LoRAA.W, B: b.Attn.Wv.LoRAB.W, Scale: b.Attn.Wv.LoRAScale}
		}
		if b.AdptA != nil {
			la.AttnScaled = bottleneckOf(b.AdptA)
		}
		if b.AdptM != nil {
			la.MLPScaled = bottleneckOf(b.AdptM)
		}
	}
	return ad
}

func bottleneckOf(a *Adapter) *BottleneckWeights {
	return &BottleneckWeights{
		DownW: a.Down.W.W, DownB: a.Down.B.W,
		UpW: a.Up.W.W, UpB: a.Up.B.W,
	}
}

// DecodeStepConfig is DecodeStepCfg's per-call configuration: the adapter,
// the step's sparsity plan, and the workspace arena. The zero value
// decodes the plain base, densely, with allocating scratch.
type DecodeStepConfig struct {
	// Adapter is the PEFT delta to decode with; nil decodes the plain base.
	Adapter *DecodeAdapter
	// Plan gates contextual sparsity for this step; nil runs fully dense.
	// Attention selections apply only to single-row steps (prefill and
	// multi-row steps attend densely); MLP selections apply to every row.
	Plan *DecodePlan
	// WS is the step workspace (nil decodes on a fresh private arena). The
	// returned logits are workspace-backed and must be read before the
	// caller's Release.
	WS *tensor.Arena
	// Stats, when set, accumulates the step's analytic FLOP and plan
	// counters (see DecodeStats). Recording is plain field arithmetic on
	// the caller-owned struct — the zero-alloc hot path stays zero-alloc.
	Stats *DecodeStats
}

// DecodeStepCfg is DecodeBatch for one sequence: it feeds ids (batch 1)
// through the model against the cache, appending their K/V rows, and
// returns the logits of the last new row as a [1, vocab] tensor.
func (m *Transformer) DecodeStepCfg(cache *KVCache, ids []int, cfg DecodeStepConfig) *tensor.Tensor {
	seq := [1]DecodeSeq{{Cache: cache, IDs: ids, Adapter: cfg.Adapter, Plan: cfg.Plan, Stats: cfg.Stats}}
	return m.DecodeBatch(seq[:], cfg.WS)
}

// DecodeSeq is one sequence's share of a DecodeBatch step: its cache, the
// ids it feeds, and DecodeStepConfig's per-sequence fields.
type DecodeSeq struct {
	Cache   *KVCache
	IDs     []int
	Adapter *DecodeAdapter
	Plan    *DecodePlan
	Stats   *DecodeStats
}

// DecodeBatch is the one implementation of the cached decode path: one
// step for every sequence, their rows stacked into one [Σrows, dim]
// activation. LayerNorms, Q/K/V/O projections, the dense MLP, residuals
// and the LM head run once over all rows; each sequence's LoRA and
// bottleneck deltas, attention against its own cache and sparse MLP run on
// its own rows. A call on an empty cache is that sequence's prefill, its
// adapter's prompt rows prepended as Forward prepends them. It returns
// [len(seqs), vocab] logits, row i from seqs[i]'s last new row. Caches
// must be distinct; the model is only read (a nil ws decodes on a fresh
// private arena, so nil-workspace decoders may share the model too);
// invalid input panics before any cache is written.
func (m *Transformer) DecodeBatch(seqs []DecodeSeq, ws *tensor.Arena) *tensor.Tensor {
	if len(seqs) == 0 {
		panic("nn: DecodeBatch with no sequences")
	}
	if ws == nil {
		ws = tensor.NewArena()
	}
	d := m.Cfg.Dim
	// Sequence i owns rows [offs[i], offs[i+1]) of every activation.
	offs := tensor.IntsIn(ws, len(seqs)+1)
	for i := range seqs {
		s := &seqs[i]
		if len(s.IDs) == 0 {
			panic("nn: decode step with no tokens")
		}
		n := len(s.IDs)
		if s.Cache.Len == 0 {
			n += s.Adapter.PromptLen()
		}
		if s.Cache.Len+n > m.Cfg.MaxSeq {
			panic(fmt.Sprintf("nn: sequence %d exceeds MaxSeq %d", s.Cache.Len+n, m.Cfg.MaxSeq))
		}
		offs[i+1] = offs[i] + n
	}

	x := tensor.NewIn(ws, offs[len(seqs)], d)
	for i := range seqs {
		s := &seqs[i]
		var prompt []float32
		if s.Cache.Len == 0 && s.Adapter.PromptLen() > 0 {
			prompt = s.Adapter.Prompt.Data
		}
		m.EmbedRows(x.Data[offs[i]*d:offs[i+1]*d], prompt, s.IDs, s.Cache.Len)
	}
	for li, blk := range m.Blocks {
		x = decodeBlock(blk, x, seqs, offs, li, ws)
	}

	// Only each sequence's last row feeds the final norm and head, so a
	// prefill skips the vocab projection for every earlier row.
	last := tensor.NewIn(ws, len(seqs), d)
	for i := range seqs {
		s := &seqs[i]
		n := offs[i+1] - offs[i]
		if s.Stats != nil {
			m.noteDecodeStep(s.Stats, n, s.Cache.Len, s.Plan)
		}
		s.Cache.Len += n
		copy(last.Data[i*d:(i+1)*d], x.Data[(offs[i+1]-1)*d:offs[i+1]*d])
	}
	return m.Head.base(m.LNF.Forward(last, ws), ws)
}

// rowsOf views rows [lo, hi) of t.
func rowsOf(ws *tensor.Arena, t *tensor.Tensor, lo, hi int) *tensor.Tensor {
	cols := t.Dim(1)
	return tensor.WrapIn(ws, t.Data[lo*cols:hi*cols], hi-lo, cols)
}

// decodeBlock mirrors TransformerBlock.Forward's dense path over the
// stacked rows, each sequence's adapter and plan applied to its segment.
func decodeBlock(b *TransformerBlock, x *tensor.Tensor, seqs []DecodeSeq, offs []int, li int, ws *tensor.Arena) *tensor.Tensor {
	h := b.LN1.Forward(x, ws)
	attnOut := decodeAttention(b.Attn, h, seqs, offs, li, ws)
	decodeBottlenecks(attnOut, seqs, offs, li, false, ws)
	x1 := tensor.CloneIn(ws, x)
	tensor.AddInto(x1, attnOut)

	h2 := b.LN2.Forward(x1, ws)
	mlpOut := decodeMLPRows(b.MLP, h2, seqs, offs, li, ws)
	decodeBottlenecks(mlpOut, seqs, offs, li, true, ws)
	x2 := tensor.CloneIn(ws, x1)
	tensor.AddInto(x2, mlpOut)
	return x2
}

// decodeAttention projects all rows once, adds each sequence's Q/V LoRA
// and attends against its own cache, then projects all rows once.
func decodeAttention(a *MultiHeadAttention, x *tensor.Tensor, seqs []DecodeSeq, offs []int, li int, ws *tensor.Arena) *tensor.Tensor {
	q := a.Wq.base(x, ws)
	k := a.Wk.base(x, ws)
	v := a.Wv.base(x, ws)
	ctx := tensor.NewIn(ws, x.Dim(0), a.Dim)
	d := a.Dim
	for i := range seqs {
		s := &seqs[i]
		lo, hi := offs[i], offs[i+1]
		if la := s.Adapter.layer(li); la != nil {
			xs := rowsOf(ws, x, lo, hi)
			if la.Q != nil {
				la.Q.addTo(rowsOf(ws, q, lo, hi), xs, ws)
			}
			if la.V != nil {
				la.V.addTo(rowsOf(ws, v, lo, hi), xs, ws)
			}
		}
		attendCached(a, ctx.Data[lo*d:hi*d], q.Data[lo*d:hi*d], k.Data[lo*d:hi*d], v.Data[lo*d:hi*d],
			&s.Cache.layers[li], s.Cache.Len, s.Plan, li, ws)
	}
	return a.Wo.base(ctx, ws)
}

// attendCached computes causal attention for one sequence's n new rows
// (q, k, v, ctx: [n, dim]) against its cached prefix, appending the rows'
// K/V to the cache at p0. Per new row r at absolute position p0+r it
// mirrors row p0+r of the training kernel (sparse.DenseCausalAttentionInto)
// operation for operation: raw dot scores, scale on the visible prefix,
// stable softmax, probability-weighted V accumulation with the
// zero-probability skip.
//
// The plan's layer-li selection, when non-nil on a single-row step,
// restricts the visible prefix to the listed KV-position blocks (the
// block holding the current position must be listed): scores are gathered
// compactly over just the selected positions, softmax normalizes over that
// support, and only the selected V rows accumulate — the block-sparse
// attention read of the paper's shadowy attention, on the cache. Skipped
// positions cost nothing, which is where the tokens/sec win at long
// prefixes comes from. Prefill and multi-row steps attend densely.
func attendCached(a *MultiHeadAttention, ctx, q, k, v []float32, kv *kvLayer, p0 int, plan *DecodePlan, li int, ws *tensor.Arena) {
	attnBlocks, blk := plan.layerAttn(li)
	d, hd := a.Dim, a.HeadDim
	n := len(q) / d
	for r := 0; r < n; r++ {
		for h := 0; h < a.Heads; h++ {
			copy(kv.k[h][(p0+r)*hd:(p0+r+1)*hd], k[r*d+h*hd:r*d+(h+1)*hd])
			copy(kv.v[h][(p0+r)*hd:(p0+r+1)*hd], v[r*d+h*hd:r*d+(h+1)*hd])
		}
	}
	// Dense reads one span, the visible prefix; a selection one per block.
	spans := 1
	if attnBlocks != nil && n == 1 {
		spans = len(attnBlocks)
	} else {
		attnBlocks = nil
	}
	span := func(b, p int) (lo, hi int) {
		if attnBlocks == nil {
			return 0, p + 1
		}
		return attnBlocks[b] * blk, min((attnBlocks[b]+1)*blk, p+1)
	}

	scale := float32(1 / math.Sqrt(float64(hd)))
	scores := tensor.FloatsDirtyIn(ws, p0+n)
	for h := 0; h < a.Heads; h++ {
		kh, vh := kv.k[h], kv.v[h]
		for r := 0; r < n; r++ {
			p := p0 + r // absolute position; rows 0..p are visible
			qrow := q[r*d+h*hd : r*d+(h+1)*hd]
			cnt := 0
			for b := 0; b < spans; b++ {
				lo, hi := span(b, p)
				for j := lo; j < hi; j++ {
					kj := kh[j*hd : (j+1)*hd]
					var s float32
					for c, qv := range qrow {
						s += qv * kj[c]
					}
					scores[cnt] = s * scale
					cnt++
				}
			}
			if cnt == 0 {
				panic("nn: decode plan selects no visible attention blocks")
			}
			row := scores[:cnt]
			tensor.SoftmaxRow(row)
			out := ctx[r*d+h*hd : r*d+(h+1)*hd]
			cnt = 0
			for b := 0; b < spans; b++ {
				lo, hi := span(b, p)
				for j := lo; j < hi; j++ {
					pj := row[cnt]
					cnt++
					if pj == 0 {
						continue
					}
					vj := vh[j*hd : (j+1)*hd]
					for c, vv := range vj {
						out[c] += pj * vv
					}
				}
			}
		}
	}
}

// decodeMLPRows runs adjacent dense sequences through one MLP.Forward call
// (usually all of them: one pass over the weights) and a sequence whose
// plan selects neuron blocks here on its own rows. Every other MLP kernel
// is row-count independent, so a row's output does not depend on who
// shares its call; a 2:4 FC1 never shares, because its four-token kernel
// sums in another order than its one-token kernel.
func decodeMLPRows(mlp *MLP, x *tensor.Tensor, seqs []DecodeSeq, offs []int, li int, ws *tensor.Arena) *tensor.Tensor {
	var out *tensor.Tensor
	for i := 0; i < len(seqs); {
		blocks, blk := seqs[i].Plan.layerMLP(li)
		j := i + 1
		for blocks == nil && mlp.NMW1 == nil && j < len(seqs) {
			if next, _ := seqs[j].Plan.layerMLP(li); next != nil {
				break
			}
			j++
		}
		lo, hi := offs[i], offs[j]
		y := mlp.Forward(rowsOf(ws, x, lo, hi), blocks, blk, ws)
		if lo == 0 && hi == x.Dim(0) {
			return y
		}
		if out == nil {
			out = tensor.NewIn(ws, x.Dim(0), mlp.Dim)
		}
		copy(out.Data[lo*mlp.Dim:hi*mlp.Dim], y.Data)
		i = j
	}
	return out
}

// decodeBottlenecks applies each sequence's post-attention (or, with mlp,
// post-MLP) bottleneck adapter to its rows of y, in place.
func decodeBottlenecks(y *tensor.Tensor, seqs []DecodeSeq, offs []int, li int, mlp bool, ws *tensor.Arena) {
	for i := range seqs {
		la := seqs[i].Adapter.layer(li)
		if la == nil {
			continue
		}
		bw := la.AttnScaled
		if mlp {
			bw = la.MLPScaled
		}
		if bw != nil {
			seg := rowsOf(ws, y, offs[i], offs[i+1])
			copy(seg.Data, decodeBottleneck(bw, seg, ws).Data)
		}
	}
}

// decodeBottleneck is Adapter.Forward against explicit weights:
// y = z + up(relu(down(z))).
func decodeBottleneck(bw *BottleneckWeights, z *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	h := tensor.MatMulIn(ws, z, bw.DownW)
	tensor.AddRowVector(h, bw.DownB.Data)
	tensor.ReLUIn(ws, h, false)
	y := tensor.MatMulIn(ws, h, bw.UpW)
	tensor.AddRowVector(y, bw.UpB.Data)
	tensor.AddInto(y, z)
	return y
}

// DecodeSession is GenerateCachedCfg's per-sequence state: the adapter,
// the KV cache, the workspace arena, and an optional sparsity planner.
// Every field's zero value means the default — fresh cache, self adapter,
// allocating scratch, fully dense steps.
type DecodeSession struct {
	// Adapter selects the PEFT delta; nil applies the model's own attached
	// modules (SelfAdapter), matching what Forward would run.
	Adapter *DecodeAdapter
	// Cache may be nil (a fresh one is made); pass a Reset cache to reuse
	// its buffers.
	Cache *KVCache
	// WS is released after every emitted token.
	WS *tensor.Arena
	// Planner, when set, plans contextual sparsity for every single-token
	// step (the prefill always runs dense). BeginSequence is called before
	// the loop starts.
	Planner DecodePlanner
	// Stats, when set, accumulates per-step FLOP and plan counters across
	// the whole generation (prefill included).
	Stats *DecodeStats
}

// GenerateCachedCfg is Generate on the KV-cached decode path: same
// sampling, same stop conditions, same RNG consumption, bit-identical
// tokens — one full-prefix prefill, then one row of compute per emitted
// token instead of the naive O(prefix) re-run. A session planner is
// threaded through the token loop: one PlanStep per emitted token, plan
// buffers released with the step's workspace.
func (m *Transformer) GenerateCachedCfg(prompt []int, cfg GenerateConfig, sess DecodeSession) []int {
	if cfg.MaxTokens == 0 {
		cfg.MaxTokens = 16
	}
	if cfg.RNG == nil {
		cfg.RNG = tensor.NewRNG(1)
	}
	if sess.Cache == nil {
		sess.Cache = m.NewKVCache()
	}
	if sess.Adapter == nil {
		sess.Adapter = m.SelfAdapter() // covers a prompt-tuned model's own prompt too
	}
	promptRows := sess.Adapter.PromptLen()
	if sess.Planner != nil {
		sess.Planner.BeginSequence(prompt, sess.Adapter)
	}

	var out []int
	feed := prompt
	var nextBuf [1]int
	for t := 0; t < cfg.MaxTokens; t++ {
		if promptRows+len(prompt)+len(out) >= m.Cfg.MaxSeq {
			break
		}
		var plan *DecodePlan
		if sess.Planner != nil && t > 0 {
			plan = sess.Planner.PlanStep(feed[0], sess.Cache.Len, sess.WS)
		}
		logits := m.DecodeStepCfg(sess.Cache, feed, DecodeStepConfig{Adapter: sess.Adapter, Plan: plan, WS: sess.WS, Stats: sess.Stats})
		next := pickToken(logits.Row(0), cfg.Temperature, cfg.RNG)
		sess.WS.Release()
		out = append(out, next)
		if cfg.StopToken > 0 && next == cfg.StopToken {
			break
		}
		nextBuf[0] = next
		feed = nextBuf[:]
	}
	return out
}

// SampleToken picks the next token from a logit row: greedy argmax when
// temperature <= 0, tempered softmax sampling otherwise (rng may be nil
// for greedy).
func SampleToken(logits []float32, temperature float64, rng *tensor.RNG) int {
	if rng == nil {
		rng = tensor.NewRNG(1)
	}
	return pickToken(logits, temperature, rng)
}
