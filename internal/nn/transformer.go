package nn

import (
	"fmt"

	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// Config describes a decoder-only transformer.
type Config struct {
	Name   string
	Vocab  int
	Dim    int
	Layers int
	Heads  int
	Hidden int // MLP hidden width (usually 4·Dim)
	MaxSeq int
	Act    Activation
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Vocab <= 0 || c.Dim <= 0 || c.Layers <= 0 || c.Heads <= 0 || c.Hidden <= 0 || c.MaxSeq <= 0:
		return fmt.Errorf("nn: non-positive field in config %+v", c)
	case c.Dim%c.Heads != 0:
		return fmt.Errorf("nn: dim %d not divisible by heads %d", c.Dim, c.Heads)
	default:
		return nil
	}
}

// LayerPlanner supplies one layer's sparse execution decisions at runtime,
// invoked with the exact tensors the sublayers are about to consume (the
// LayerNorm outputs). This is how the sequence-oriented predictor plugs in:
// it sees the layer input, predicts the sparse pattern, and the layer then
// computes only that pattern. Nil returns select the dense path.
type LayerPlanner interface {
	// PlanAttention returns per-head layouts (len == heads) and the block
	// size, or (nil, 0) for dense attention.
	PlanAttention(x *tensor.Tensor, batch, seq int) ([]*sparse.Layout, int)
	// PlanMLP returns the active neuron blocks and the block size, or
	// (nil, 0) for a dense MLP.
	PlanMLP(x *tensor.Tensor, batch, seq int) ([]int, int)
}

// Planner supplies a LayerPlanner for each layer. A nil Planner runs the
// whole model dense.
type Planner interface {
	Layer(i int) LayerPlanner
}

// SparsePlan is a static Planner: fixed per-layer per-head attention
// layouts and active MLP neuron blocks, decided before the step. Nil
// entries run dense.
type SparsePlan struct {
	Blk  int
	Attn [][]*sparse.Layout // [layer][head]
	MLP  [][]int            // [layer] active neuron blocks
}

// Layer implements Planner. A nil *SparsePlan plans everything dense, so a
// typed-nil plan passed through the Planner interface stays harmless.
func (p *SparsePlan) Layer(i int) LayerPlanner {
	if p == nil {
		return nil
	}
	return staticLayerPlan{p, i}
}

type staticLayerPlan struct {
	p  *SparsePlan
	li int
}

func (s staticLayerPlan) PlanAttention(_ *tensor.Tensor, _, _ int) ([]*sparse.Layout, int) {
	if s.p.Attn == nil || s.p.Attn[s.li] == nil {
		return nil, 0
	}
	return s.p.Attn[s.li], s.p.Blk
}

func (s staticLayerPlan) PlanMLP(_ *tensor.Tensor, _, _ int) ([]int, int) {
	if s.p.MLP == nil || s.p.MLP[s.li] == nil {
		return nil, 0
	}
	return s.p.MLP[s.li], s.p.Blk
}

// Transformer is a decoder-only language model: token + learned positional
// embeddings, a stack of blocks, a final LayerNorm and a vocabulary head.
// An optional trainable prompt (P-Tuning) is prepended to every sequence.
type Transformer struct {
	Cfg    Config
	TokEmb *Embedding
	PosEmb *Embedding
	Blocks []*TransformerBlock
	LNF    *LayerNorm
	Head   *Linear

	Prompt    *Parameter // nil unless prompt tuning is enabled
	PromptLen int
}

// modelState is what one Transformer invocation saves for its backward.
type modelState struct {
	batch, seq int   // seq includes the prompt
	realSeq    int   // tokens per sequence
	ids        []int // flattened [batch·realSeq] token ids
}

// NewTransformer builds and initializes the model.
func NewTransformer(cfg Config, rng *tensor.RNG) *Transformer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Transformer{
		Cfg:    cfg,
		TokEmb: NewEmbedding("tok_emb", cfg.Vocab, cfg.Dim, rng),
		PosEmb: NewEmbedding("pos_emb", cfg.MaxSeq, cfg.Dim, rng),
		LNF:    NewLayerNorm("ln_f", cfg.Dim),
		Head:   NewLinear("lm_head", cfg.Dim, cfg.Vocab, rng),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.Blocks = append(m.Blocks,
			NewTransformerBlock(fmt.Sprintf("layer%d", i), cfg.Dim, cfg.Heads, cfg.Hidden, cfg.Act, rng))
	}
	return m
}

// Params returns every parameter in the model.
func (m *Transformer) Params() ParamSet {
	ps := append(m.TokEmb.Params(), m.PosEmb.Params()...)
	for _, b := range m.Blocks {
		ps = append(ps, b.Params()...)
	}
	ps = append(ps, m.LNF.Params()...)
	ps = append(ps, m.Head.Params()...)
	if m.Prompt != nil {
		ps = append(ps, m.Prompt)
	}
	return ps
}

// EnablePrompt attaches a trainable continuous prompt of n vectors
// (P-Tuning). Sequences grow by n tokens at the front.
func (m *Transformer) EnablePrompt(n int, rng *tensor.RNG) {
	m.Prompt = NewParameter("prompt", n, m.Cfg.Dim)
	rng.FillNormal(m.Prompt.W, 0.02)
	m.PromptLen = n
}

// TotalSeq returns the model-visible sequence length for an input of s
// tokens (s plus the prompt).
func (m *Transformer) TotalSeq(s int) int { return s + m.PromptLen }

// Forward runs the model over a batch of equal-length token sequences and
// returns logits [batch·totalSeq, vocab]. planner selects sparse execution
// per layer at runtime; pass nil for fully dense. ws is the step workspace
// every step-lived buffer comes from; the logits (and all
// saved-for-backward state) are valid until the workspace's Release.
func (m *Transformer) Forward(ids [][]int, planner Planner, ws *tensor.Arena) *tensor.Tensor {
	batch := len(ids)
	if batch == 0 {
		panic("nn: empty batch")
	}
	s := len(ids[0])
	for _, row := range ids {
		if len(row) != s {
			panic("nn: ragged batch")
		}
	}
	total := m.TotalSeq(s)
	if total > m.Cfg.MaxSeq {
		panic(fmt.Sprintf("nn: sequence %d exceeds MaxSeq %d", total, m.Cfg.MaxSeq))
	}
	st := stateOf[modelState](ws, m)
	st.batch, st.seq, st.realSeq = batch, total, s
	st.ids = ws.Ints(batch * s)
	d := m.Cfg.Dim
	var prompt []float32
	if m.Prompt != nil {
		prompt = m.Prompt.W.Data
	}
	x := ws.Get(batch*total, d)
	for b, row := range ids {
		copy(st.ids[b*s:], row)
		m.EmbedRows(x.Data[b*total*d:(b+1)*total*d], prompt, row, 0)
	}

	for li, blk := range m.Blocks {
		var lp LayerPlanner
		if planner != nil {
			lp = planner.Layer(li)
		}
		x = blk.Forward(x, batch, total, lp, ws)
	}

	x = m.LNF.Forward(x, ws)
	return m.Head.Forward(x, ws)
}

// Backward propagates dLogits through the whole model, accumulating
// gradients on every trainable parameter. ws must be the workspace the
// matching Forward ran with.
func (m *Transformer) Backward(dLogits *tensor.Tensor, ws *tensor.Arena) {
	dx := m.Head.Backward(dLogits, ws)
	dx = m.LNF.Backward(dx, ws)
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		dx = m.Blocks[i].Backward(dx, ws)
	}

	// Embedding gradients: every position feeds its positional row, the
	// leading prompt rows the prompt, the rest their token's row.
	st := stateOf[modelState](ws, m)
	batch, total, s, P, d := st.batch, st.seq, st.realSeq, m.PromptLen, m.Cfg.Dim
	for b := 0; b < batch; b++ {
		for p := 0; p < total; p++ {
			row := dx.Data[(b*total+p)*d : (b*total+p+1)*d]
			accumulateRow(m.PosEmb.Table, p, row)
			if p < P {
				accumulateRow(m.Prompt, p, row)
			} else {
				accumulateRow(m.TokEmb.Table, st.ids[b*s+p-P], row)
			}
		}
	}
}

// EmbedRows writes one sequence's model-input rows into dst from absolute
// position p0 on: the prompt rows (flattened [P, dim] prompt-tuning
// vectors) first, then the token embeddings of ids, each row plus its
// learned positional embedding. It is the one input assembly — Forward,
// DecodeBatch and the serving planner's sketch all build rows through it.
func (m *Transformer) EmbedRows(dst, prompt []float32, ids []int, p0 int) {
	d := m.Cfg.Dim
	dst = dst[:len(prompt)+len(ids)*d]
	copy(dst, prompt)
	for i, id := range ids {
		if id < 0 || id >= m.Cfg.Vocab {
			panic(fmt.Sprintf("nn: embedding id %d outside vocab %d", id, m.Cfg.Vocab))
		}
		copy(dst[len(prompt)+i*d:], m.TokEmb.Table.W.Data[id*d:(id+1)*d])
	}
	for j, v := range m.PosEmb.Table.W.Data[p0*d : p0*d+len(dst)] {
		dst[j] += v
	}
}

// FlattenTargetsIn aligns per-sequence targets with the model's flattened
// logits, in a slice taken from the step workspace: prompt positions
// receive IgnoreIndex.
func (m *Transformer) FlattenTargetsIn(ws *tensor.Arena, targets [][]int) []int {
	batch := len(targets)
	s := len(targets[0])
	total := m.TotalSeq(s)
	out := ws.Ints(batch * total)
	for b := 0; b < batch; b++ {
		for p := 0; p < m.PromptLen; p++ {
			out[b*total+p] = IgnoreIndex
		}
		copy(out[b*total+m.PromptLen:], targets[b])
	}
	return out
}

// NumParams reports total and trainable scalar parameter counts.
func (m *Transformer) NumParams() (total, trainable int) {
	return m.Params().NumParams()
}
