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
	// or 2:4. The f32 data is freed and the dense forward paths run the
	// packed GEMM drivers. Compressed MLPs are serving-only — Backward and
	// the neuron-block contextual-sparsity paths refuse them.
	PackedW1, PackedW2 *tensor.PackedWeights // int8 scales: W1 per row, W2 per col
}

// mlpState is what one MLP invocation saves for its backward — and what
// the exposer and predictor-data collection read back.
type mlpState struct {
	x      *tensor.Tensor
	hidden *tensor.Tensor // post-activation [tokens, hidden]
	preAct *tensor.Tensor // pre-activation copy (GeLU backward)
	mask   *tensor.Tensor // ReLU activation mask
	blocks []int          // active neuron blocks; nil → dense
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

// colMajorW1 views the FC1 parameter as the sparse kernels' ColMajor type.
func (m *MLP) colMajorW1(t *tensor.Tensor) *sparse.ColMajor {
	return &sparse.ColMajor{In: m.Dim, Out: m.Hidden, Data: t.Data}
}

// rowMajorW2 views the FC2 parameter as the sparse kernels' RowMajor type.
func (m *MLP) rowMajorW2(t *tensor.Tensor) *sparse.RowMajor {
	return &sparse.RowMajor{In: m.Hidden, Out: m.Dim, Data: t.Data}
}

// Forward computes the block over x: [tokens, dim]. blocks selects the
// execution path: nil runs dense; otherwise only the listed neuron blocks
// (of size blk) are computed, and all other hidden units are treated as
// inactive — including their biases, matching the predictor contract that
// unlisted neurons contribute nothing.
func (m *MLP) Forward(x *tensor.Tensor, blocks []int, blk int, ws *tensor.Arena) *tensor.Tensor {
	if blocks != nil && m.Act == ActGeLU {
		panic("nn: neuron sparsity requires ReLU activation")
	}
	if blocks != nil && m.compressed() {
		panic("nn: neuron-block sparsity on a compressed MLP — compressed bases serve dense")
	}
	st := stateOf[mlpState](ws, m)
	tokens := x.Dim(0)
	st.x = x
	st.blocks, st.blk = blocks, blk

	st.hidden = ws.Get(tokens, m.Hidden)
	if blocks == nil {
		// Dense: hidden = x·W1ᵀ(param) + b1.
		m.fc1Dense(st.hidden, x)
		tensor.AddRowVector(st.hidden, m.B1.W.Data)
	} else {
		sparse.FC1Sparse(st.hidden.Data, x.Data, tokens, m.colMajorW1(m.W1.W), blocks, blk)
		addBiasBlocks(st.hidden, m.B1.W.Data, blocks, blk)
	}
	switch m.Act {
	case ActReLU:
		st.mask, st.preAct = tensor.ReLUIn(ws, st.hidden, true), nil
	case ActGeLU:
		st.mask, st.preAct = nil, tensor.GeLUIn(ws, st.hidden)
	}

	out := ws.Get(tokens, m.Dim)
	if blocks == nil {
		m.fc2Dense(out, st.hidden)
	} else {
		sparse.FC2Sparse(out.Data, st.hidden.Data, tokens, m.rowMajorW2(m.W2.W), blocks, blk)
	}
	tensor.AddRowVector(out, m.B2.W.Data)
	return out
}

// compressed reports whether either weight matrix left f32 storage.
func (m *MLP) compressed() bool { return m.PackedW1 != nil || m.PackedW2 != nil }

// fc1Dense accumulates hidden += x·W1ᵀ through whichever storage W1 is in.
// hidden arrives zeroed, so the accumulate is an overwrite.
func (m *MLP) fc1Dense(hidden, x *tensor.Tensor) {
	if m.PackedW1 != nil {
		tensor.MatMulTBPackedInto(hidden, x, m.PackedW1)
	} else {
		tensor.MatMulTBInto(hidden, x, m.W1.W)
	}
}

// fc2Dense accumulates out += hidden·W2 through whichever storage W2 is in.
func (m *MLP) fc2Dense(out, hidden *tensor.Tensor) {
	if m.PackedW2 != nil {
		tensor.MatMulPackedInto(out, hidden, m.PackedW2)
	} else {
		tensor.MatMulInto(out, hidden, m.W2.W)
	}
}

// Backward propagates dOut and returns dx. Under neuron sparsity, both the
// hidden gradient and any weight gradients are computed only on active
// blocks — inactive neurons are excluded from gradient computation exactly
// as §II-D derives.
func (m *MLP) Backward(dOut *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	if m.compressed() {
		panic("nn: Backward through a compressed MLP — compressed bases are serving-only")
	}
	st := stateOf[mlpState](ws, m)
	tokens := dOut.Dim(0)
	if !m.B2.Frozen {
		accumulateColumnSum(m.B2.Grad.Data, dOut)
	}

	dHidden := ws.Get(tokens, m.Hidden)
	if st.blocks == nil {
		tensor.MatMulTBInto(dHidden, dOut, m.W2.W) // dHidden = dOut·W2ᵀ (W2: [hidden,dim])
		if !m.W2.Frozen {
			tensor.MatMulTAInto(m.W2.Grad, st.hidden, dOut)
		}
	} else {
		sparse.FC2GradHidden(dHidden.Data, dOut.Data, tokens, m.rowMajorW2(m.W2.W), st.blocks, st.blk)
		if !m.W2.Frozen {
			sparse.FC2GradWeight(m.rowMajorW2(m.W2.Grad), st.hidden.Data, dOut.Data, tokens, st.blocks, st.blk)
		}
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
	if st.blocks == nil {
		tensor.MatMulInto(dx, dHidden, m.W1.W) // dx = dHidden·W1(param) = dHidden·Wcᵀ
		if !m.W1.Frozen {
			tensor.MatMulTAInto(m.W1.Grad, dHidden, st.x)
		}
	} else {
		sparse.FC1GradInput(dx.Data, dHidden.Data, tokens, m.colMajorW1(m.W1.W), st.blocks, st.blk)
		if !m.W1.Frozen {
			sparse.FC1GradWeight(m.colMajorW1(m.W1.Grad), st.x.Data, dHidden.Data, tokens, st.blocks, st.blk)
		}
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

type biasBlockArgs struct {
	hidden, b []float32
	blocks    []int
	blk, h    int
}

func addBiasBlocksChunk(a biasBlockArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := a.hidden[i*a.h : (i+1)*a.h]
		for _, nb := range a.blocks {
			for c := nb * a.blk; c < (nb+1)*a.blk && c < a.h; c++ {
				row[c] += a.b[c]
			}
		}
	}
}

// addBiasBlocks adds b to hidden only on the listed neuron blocks.
func addBiasBlocks(hidden *tensor.Tensor, b []float32, blocks []int, blk int) {
	tokens, H := hidden.Dim(0), hidden.Dim(1)
	parallel.ForChunkedArg(tokens, biasBlockArgs{hidden.Data, b, blocks, blk, H}, addBiasBlocksChunk)
}
