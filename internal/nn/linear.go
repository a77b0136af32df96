package nn

import (
	"longexposure/internal/parallel"
	"longexposure/internal/tensor"
)

// Linear is a dense affine layer y = x·W + b with W: [in, out] row-major.
// An optional LoRA branch adds scale·(x·A)·B with A: [in, r], B: [r, out];
// injecting LoRA freezes nothing by itself — PEFT setup decides the flags.
type Linear struct {
	In, Out int
	W       *Parameter
	B       *Parameter

	// Packed, when set, replaces W's f32 storage with reduced-precision
	// weights ([in, out], per-column int8 scales): the forward paths run
	// the widening GEMM kernels and W.W.Data is freed. A packed layer is
	// frozen by construction — Backward refuses it (see Compress).
	Packed *tensor.PackedWeights

	// LoRA branch (nil when absent).
	LoRAA     *Parameter
	LoRAB     *Parameter
	LoRAScale float32
}

// linearState is what one Linear invocation saves for its backward.
type linearState struct {
	x  *tensor.Tensor // input [tokens, in]
	xa *tensor.Tensor // x·A [tokens, r], saved for LoRA backward
}

// NewLinear constructs a linear layer with Xavier-initialized weights.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   NewParameter(name+".weight", in, out),
		B:   NewParameter(name+".bias", out),
	}
	rng.XavierInit(l.W.W, in, out)
	return l
}

// AddLoRA injects a rank-r LoRA branch. A is Gaussian-initialized, B starts
// at zero so the branch initially contributes nothing (the standard LoRA
// init), and scale = alpha/r.
func (l *Linear) AddLoRA(name string, r int, alpha float64, rng *tensor.RNG) {
	l.LoRAA = NewParameter(name+".lora_A", l.In, r)
	l.LoRAB = NewParameter(name+".lora_B", r, l.Out)
	rng.FillNormal(l.LoRAA.W, 0.02)
	l.LoRAScale = float32(alpha / float64(r))
}

// HasLoRA reports whether a LoRA branch is attached.
func (l *Linear) HasLoRA() bool { return l.LoRAA != nil }

// Params returns the layer's parameters (including LoRA when present).
func (l *Linear) Params() ParamSet {
	ps := ParamSet{l.W, l.B}
	if l.HasLoRA() {
		ps = append(ps, l.LoRAA, l.LoRAB)
	}
	return ps
}

// Forward computes y = x·W + b (+ LoRA branch), saving x for backward.
// x: [tokens, in] → y: [tokens, out]. ws is the step workspace all
// step-lived outputs and the saved state come from.
func (l *Linear) Forward(x *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	st := stateOf[linearState](ws, l)
	st.x = x
	y := l.base(x, ws)
	if l.HasLoRA() {
		st.xa = l.lora().addTo(y, x, ws)
	}
	return y
}

// base computes the frozen base product y = x·W + b, saving nothing — the
// part of Forward the decode path shares across sequences.
func (l *Linear) base(x *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	var y *tensor.Tensor
	if l.Packed != nil {
		y = tensor.MatMulPackedIn(ws, x, l.Packed)
	} else {
		y = tensor.MatMulIn(ws, x, l.W.W)
	}
	tensor.AddRowVector(y, l.B.W.Data)
	return y
}

// lora views the attached LoRA branch as a LoRAPair.
func (l *Linear) lora() LoRAPair {
	return LoRAPair{A: l.LoRAA.W, B: l.LoRAB.W, Scale: l.LoRAScale}
}

// addTo adds the delta Scale·(x·A)·B to y and returns x·A. It is the one
// LoRA forward: Linear.Forward runs it on the attached branch, decode on
// each sequence's rows with that sequence's adapter.
func (p LoRAPair) addTo(y, x *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	xa := tensor.MatMulIn(ws, x, p.A)
	tensor.AddScaledInto(y, tensor.MatMulIn(ws, xa, p.B), p.Scale)
	return xa
}

// Backward propagates dy: accumulates parameter gradients for unfrozen
// parameters and returns dx. The frozen-weight gradients are genuinely
// skipped — the PEFT cost structure the paper analyses in §II-C.
func (l *Linear) Backward(dy *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	if l.Packed != nil {
		panic("nn: Backward through a packed (compressed) linear layer — compressed bases are serving-only")
	}
	st := stateOf[linearState](ws, l)
	tokens := dy.Dim(0)
	if !l.W.Frozen {
		tensor.MatMulTAInto(l.W.Grad, st.x, dy) // dW += xᵀ·dy
	}
	if !l.B.Frozen {
		accumulateColumnSum(l.B.Grad.Data, dy)
	}
	dx := ws.Get(tokens, l.In)
	tensor.MatMulTBInto(dx, dy, l.W.W) // dx = dy·Wᵀ  (W: [in,out])

	if l.HasLoRA() {
		// d(xa) = scale · dy·Bᵀ ; dB += scale · xaᵀ·dy ; dA += xᵀ·dxa ;
		// dx += dxa·Aᵀ.
		dxa := tensor.MatMulTBIn(ws, dy, l.LoRAB.W) // B: [r,out] → dy·Bᵀ
		tensor.Scale(dxa, l.LoRAScale)
		if !l.LoRAB.Frozen {
			ga := tensor.MatMulTAIn(ws, st.xa, dy)
			tensor.AddScaledInto(l.LoRAB.Grad, ga, l.LoRAScale)
		}
		if !l.LoRAA.Frozen {
			tensor.MatMulTAInto(l.LoRAA.Grad, st.x, dxa)
		}
		dxL := tensor.MatMulTBIn(ws, dxa, l.LoRAA.W) // A: [in,r] → dxa·Aᵀ
		tensor.AddInto(dx, dxL)
	}
	return dx
}

// colSumArgs / columnSumChunk: static body for accumulateColumnSum so the
// bias-gradient reduction allocates nothing on the hot path.
type colSumArgs struct {
	dst, data []float32
	tokens, n int
}

func columnSumChunk(a colSumArgs, lo, hi int) {
	for j := lo; j < hi; j++ {
		var s float32
		for i := 0; i < a.tokens; i++ {
			s += a.data[i*a.n+j]
		}
		a.dst[j] += s
	}
}

// accumulateColumnSum adds the column sums of a [tokens, n] tensor into dst.
func accumulateColumnSum(dst []float32, t *tensor.Tensor) {
	tokens, n := t.Dim(0), t.Dim(1)
	parallel.ForChunkedArg(n, colSumArgs{dst, t.Data, tokens, n}, columnSumChunk)
}
