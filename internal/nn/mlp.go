package nn

import (
	"longexposure/internal/parallel"
	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// Activation selects the MLP nonlinearity. ReLU models (OPT family) expose
// neuron sparsity; GeLU models (GPT-2 family) do not, so their MLPs always
// run dense (paper §VII-D).
type Activation uint8

const (
	// ActReLU is the rectifier (OPT).
	ActReLU Activation = iota
	// ActGeLU is the Gaussian error linear unit (GPT-2).
	ActGeLU
)

// String names the activation.
func (a Activation) String() string {
	if a == ActGeLU {
		return "gelu"
	}
	return "relu"
}

// MLP is the transformer feed-forward block FC1 → activation → FC2 with
// layout-aware weight storage (§VI-B): FC1 is held column-major (each
// neuron's input weights contiguous), FC2 row-major (each neuron's output
// weights contiguous), so the neuron-block sparse kernels stream exactly
// the active weights with unit stride.
//
// Concretely, the FC1 parameter has shape [hidden, dim] whose row h is
// column h of the conceptual [dim → hidden] matrix; FC2 is the natural
// [hidden, dim].
type MLP struct {
	Dim, Hidden int
	Act         Activation
	W1, B1      *Parameter // W1: [hidden, dim] column-major view of [dim→hidden]
	W2, B2      *Parameter // W2: [hidden, dim] row-major

	// Compact storage for a compressed frozen base (Compress): f16, int8
	// or 2:4. The f32 data is freed and Forward's neuron-block kernels
	// read row ranges of the packed matrices instead, dense or sparse.
	// Compressed MLPs are serving-only: Backward refuses them.
	PackedW1, PackedW2 *tensor.PackedWeights // int8 scales: W1 per row, W2 per col
}

// mlpState is what one MLP invocation saves for its backward — and what
// the exposer and predictor-data collection read back.
type mlpState struct {
	x      *tensor.Tensor
	hidden *tensor.Tensor // post-activation [tokens, hidden]
	preAct *tensor.Tensor // pre-activation copy (GeLU backward)
	mask   *tensor.Tensor // ReLU activation mask
	blocks []int          // active neuron blocks; nil → all of them
	blk    int
}

// NewMLP constructs the feed-forward block with Xavier init.
func NewMLP(name string, dim, hidden int, act Activation, rng *tensor.RNG) *MLP {
	m := &MLP{
		Dim:    dim,
		Hidden: hidden,
		Act:    act,
		W1:     NewParameter(name+".fc1.weight", hidden, dim),
		B1:     NewParameter(name+".fc1.bias", hidden),
		W2:     NewParameter(name+".fc2.weight", hidden, dim),
		B2:     NewParameter(name+".fc2.bias", dim),
	}
	rng.XavierInit(m.W1.W, dim, hidden)
	rng.XavierInit(m.W2.W, hidden, dim)
	return m
}

// Params returns the block's parameters.
func (m *MLP) Params() ParamSet { return ParamSet{m.W1, m.B1, m.W2, m.B2} }

// colMajorW1 views the FC1 parameter t (and, for the weight, its packed
// storage p) as the sparse kernels' ColMajor type.
func (m *MLP) colMajorW1(t *tensor.Tensor, p *tensor.PackedWeights) *sparse.ColMajor {
	return &sparse.ColMajor{In: m.Dim, Out: m.Hidden, Data: t.Data, Packed: p}
}

// rowMajorW2 views the FC2 parameter t (and p) as the sparse kernels'
// RowMajor type.
func (m *MLP) rowMajorW2(t *tensor.Tensor, p *tensor.PackedWeights) *sparse.RowMajor {
	return &sparse.RowMajor{In: m.Hidden, Out: m.Dim, Data: t.Data, Packed: p}
}

// Forward computes the block over x: [tokens, dim] on the neuron blocks
// (of size blk) listed in blocks; nil lists every block, which is dense.
// Unlisted hidden units are treated as inactive — including their
// biases, matching the predictor contract that unlisted neurons
// contribute nothing. Every product runs the sparse neuron-block
// kernels, over f32 or packed weights alike.
func (m *MLP) Forward(x *tensor.Tensor, blocks []int, blk int, ws *tensor.Arena) *tensor.Tensor {
	if blocks == nil {
		blk = tensor.RowTile // the full list is one run; blk only splits weight gradients
	} else if m.Act == ActGeLU {
		panic("nn: neuron sparsity requires ReLU activation")
	}
	st := stateOf[mlpState](ws, m)
	tokens := x.Dim(0)
	st.x = x
	st.blocks, st.blk = blocks, blk

	st.hidden = ws.Get(tokens, m.Hidden)
	sparse.FC1Sparse(st.hidden.Data, x.Data, tokens, m.colMajorW1(m.W1.W, m.PackedW1), blocks, blk)
	sparse.AddBias(st.hidden.Data, m.B1.W.Data, tokens, blocks, blk)
	switch m.Act {
	case ActReLU:
		st.mask, st.preAct = tensor.ReLUIn(ws, st.hidden, true), nil
	case ActGeLU:
		st.mask, st.preAct = nil, tensor.GeLUIn(ws, st.hidden)
	}

	out := ws.Get(tokens, m.Dim)
	sparse.FC2Sparse(out.Data, st.hidden.Data, tokens, m.rowMajorW2(m.W2.W, m.PackedW2), blocks, blk)
	tensor.AddRowVector(out, m.B2.W.Data)
	return out
}

// Backward propagates dOut and returns dx. Under neuron sparsity, both the
// hidden gradient and any weight gradients are computed only on active
// blocks — inactive neurons are excluded from gradient computation exactly
// as §II-D derives.
func (m *MLP) Backward(dOut *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	if m.PackedW1 != nil || m.PackedW2 != nil {
		panic("nn: Backward through a compressed MLP — compressed bases are serving-only")
	}
	st := stateOf[mlpState](ws, m)
	tokens := dOut.Dim(0)
	if !m.B2.Frozen {
		accumulateColumnSum(m.B2.Grad.Data, dOut)
	}

	dHidden := ws.Get(tokens, m.Hidden)
	sparse.FC2GradHidden(dHidden.Data, dOut.Data, tokens, m.rowMajorW2(m.W2.W, nil), st.blocks, st.blk)
	if !m.W2.Frozen {
		sparse.FC2GradWeight(m.rowMajorW2(m.W2.Grad, nil), st.hidden.Data, dOut.Data, tokens, st.blocks, st.blk)
	}

	// Activation backward.
	switch m.Act {
	case ActReLU:
		tensor.MulInto(dHidden, st.mask)
	case ActGeLU:
		dh := dHidden.Data
		pre := st.preAct.Data
		dy := ws.FloatsDirty(len(dh))
		copy(dy, dh)
		clear(dh)
		parallel.ForChunkedArg(len(dh), geluGradArgs{dh, dy, pre}, geluGradChunk)
	}

	if !m.B1.Frozen {
		accumulateColumnSum(m.B1.Grad.Data, dHidden)
	}

	dx := ws.Get(tokens, m.Dim)
	sparse.FC1GradInput(dx.Data, dHidden.Data, tokens, m.colMajorW1(m.W1.W, nil), st.blocks, st.blk)
	if !m.W1.Frozen {
		sparse.FC1GradWeight(m.colMajorW1(m.W1.Grad, nil), st.x.Data, dHidden.Data, tokens, st.blocks, st.blk)
	}
	return dx
}

// ActivationMask exposes the ReLU mask [tokens, hidden] of the last
// forward run with the given workspace — the raw signal the exposer and
// predictor-training data collection read. Nil for GeLU.
func (m *MLP) ActivationMask(ws *tensor.Arena) *tensor.Tensor { return stateOf[mlpState](ws, m).mask }

// HiddenActivations exposes the post-activation hidden matrix [tokens,
// hidden] of the last forward run with the given workspace — the
// magnitude signal the exposer's neuron importance filter ranks.
func (m *MLP) HiddenActivations(ws *tensor.Arena) *tensor.Tensor {
	return stateOf[mlpState](ws, m).hidden
}

type geluGradArgs struct{ dh, dy, pre []float32 }

func geluGradChunk(a geluGradArgs, lo, hi int) { tensor.GeLUGradRange(a.dh, a.dy, a.pre, lo, hi) }
