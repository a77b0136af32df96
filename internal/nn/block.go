package nn

import (
	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// TransformerBlock is a pre-LayerNorm decoder block:
//
//	x ← x + [AdapterA](Attn(LN1(x)))
//	x ← x + [AdapterM](MLP(LN2(x)))
//
// Adapters are optional (nil when the PEFT method is not adapter-based).
type TransformerBlock struct {
	LN1, LN2 *LayerNorm
	Attn     *MultiHeadAttention
	MLP      *MLP
	AdptA    *Adapter
	AdptM    *Adapter
}

// blockState keeps one block invocation's sublayer inputs (predictor
// signals); the block's backward reads nothing from it.
type blockState struct {
	ln1Out, ln2Out *tensor.Tensor
}

// LN1Out returns the normalized input the attention sublayer saw in the
// last forward run with the given workspace — the input the attention
// predictor is trained on.
func (b *TransformerBlock) LN1Out(ws *tensor.Arena) *tensor.Tensor {
	return stateOf[blockState](ws, b).ln1Out
}

// LN2Out returns the normalized input the MLP sublayer saw in the last
// forward run with the given workspace — the input the MLP predictor is
// trained on.
func (b *TransformerBlock) LN2Out(ws *tensor.Arena) *tensor.Tensor {
	return stateOf[blockState](ws, b).ln2Out
}

// NewTransformerBlock builds one decoder block.
func NewTransformerBlock(name string, dim, heads, hidden int, act Activation, rng *tensor.RNG) *TransformerBlock {
	return &TransformerBlock{
		LN1:  NewLayerNorm(name+".ln1", dim),
		LN2:  NewLayerNorm(name+".ln2", dim),
		Attn: NewMultiHeadAttention(name+".attn", dim, heads, rng),
		MLP:  NewMLP(name+".mlp", dim, hidden, act, rng),
	}
}

// Params returns the block's parameters, adapters included when present.
func (b *TransformerBlock) Params() ParamSet {
	ps := append(b.LN1.Params(), b.Attn.Params()...)
	ps = append(ps, b.LN2.Params()...)
	ps = append(ps, b.MLP.Params()...)
	if b.AdptA != nil {
		ps = append(ps, b.AdptA.Params()...)
	}
	if b.AdptM != nil {
		ps = append(ps, b.AdptM.Params()...)
	}
	return ps
}

// Forward runs the block. planner supplies the sparse decisions for each
// sublayer at runtime (nil → fully dense). The planner is consulted with
// the LayerNorm outputs — the exact tensors the sublayers consume, and the
// inputs the predictors were trained on.
func (b *TransformerBlock) Forward(x *tensor.Tensor, batch, seq int, planner LayerPlanner, ws *tensor.Arena) *tensor.Tensor {
	st := stateOf[blockState](ws, b)
	h := b.LN1.Forward(x, ws)
	st.ln1Out = h
	var attnLayouts []*sparse.Layout
	blk := 0
	if planner != nil {
		attnLayouts, blk = planner.PlanAttention(h, batch, seq)
	}
	attnOut := b.Attn.Forward(h, batch, seq, attnLayouts, blk, ws)
	if b.AdptA != nil {
		attnOut = b.AdptA.Forward(attnOut, ws)
	}
	x1 := tensor.CloneIn(ws, x)
	tensor.AddInto(x1, attnOut)

	h2 := b.LN2.Forward(x1, ws)
	st.ln2Out = h2
	var mlpBlocks []int
	mblk := 0
	if planner != nil {
		mlpBlocks, mblk = planner.PlanMLP(h2, batch, seq)
	}
	mlpOut := b.MLP.Forward(h2, mlpBlocks, mblk, ws)
	if b.AdptM != nil {
		mlpOut = b.AdptM.Forward(mlpOut, ws)
	}
	x2 := tensor.CloneIn(ws, x1)
	tensor.AddInto(x2, mlpOut)
	return x2
}

// Backward propagates dy through both residual sublayers.
func (b *TransformerBlock) Backward(dy *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	// MLP sublayer: x2 = x1 + f(LN2(x1)).
	dm := dy
	if b.AdptM != nil {
		dm = b.AdptM.Backward(dm, ws)
	}
	dm = b.MLP.Backward(dm, ws)
	dm = b.LN2.Backward(dm, ws)
	dx1 := tensor.CloneIn(ws, dy)
	tensor.AddInto(dx1, dm)

	// Attention sublayer: x1 = x + g(LN1(x)).
	da := dx1
	if b.AdptA != nil {
		da = b.AdptA.Backward(da, ws)
	}
	da = b.Attn.Backward(da, ws)
	da = b.LN1.Backward(da, ws)
	dx := tensor.CloneIn(ws, dx1)
	tensor.AddInto(dx, da)
	return dx
}
