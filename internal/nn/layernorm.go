package nn

import (
	"math"

	"longexposure/internal/parallel"
	"longexposure/internal/tensor"
)

// LayerNorm normalizes each token vector to zero mean / unit variance and
// applies a learned affine (gamma, beta).
type LayerNorm struct {
	Dim   int
	Gamma *Parameter
	Beta  *Parameter
	Eps   float64
}

// lnState is what one LayerNorm invocation saves for its backward.
type lnState struct {
	xhat   []float32 // normalized input [tokens, dim]
	invStd []float32 // per-token 1/σ
}

// lnRowGrain is the fewest rows Forward hands one worker, so a decode
// step's few rows normalize on the calling goroutine.
const lnRowGrain = 8

// NewLayerNorm constructs a layer norm with gamma=1, beta=0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Dim:   dim,
		Gamma: NewParameter(name+".gamma", dim),
		Beta:  NewParameter(name+".beta", dim),
		Eps:   1e-5,
	}
	ln.Gamma.W.Fill(1)
	return ln
}

// Params returns gamma and beta.
func (ln *LayerNorm) Params() ParamSet { return ParamSet{ln.Gamma, ln.Beta} }

// Forward normalizes x: [tokens, dim] → y of the same shape. ws is the
// step workspace.
func (ln *LayerNorm) Forward(x *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	st := stateOf[lnState](ws, ln)
	tokens, d := x.Dim(0), x.Dim(1)
	y := ws.Get(tokens, d)
	st.xhat = ws.FloatsDirty(tokens * d)
	st.invStd = ws.FloatsDirty(tokens)
	parallel.ForBlockedArg(tokens, lnRowGrain, lnFwdArgs{
		x: x.Data, y: y.Data, xhat: st.xhat, invStd: st.invStd,
		g: ln.Gamma.W.Data, b: ln.Beta.W.Data, d: d, eps: ln.Eps,
	}, lnForwardChunk)
	return y
}

// lnFwdArgs / lnForwardChunk: static normalization body (allocation-free
// parallel fan-out, see parallel.ForChunkedArg).
type lnFwdArgs struct {
	x, y, xhat, invStd, g, b []float32
	d                        int
	eps                      float64
}

func lnForwardChunk(a lnFwdArgs, lo, hi int) {
	d := a.d
	for i := lo; i < hi; i++ {
		xi := a.x[i*d : (i+1)*d]
		var mean float64
		for _, v := range xi {
			mean += float64(v)
		}
		mean /= float64(d)
		var varr float64
		for _, v := range xi {
			dv := float64(v) - mean
			varr += dv * dv
		}
		varr /= float64(d)
		inv := float32(1 / math.Sqrt(varr+a.eps))
		a.invStd[i] = inv
		xh := a.xhat[i*d : (i+1)*d]
		yi := a.y[i*d : (i+1)*d]
		for j, v := range xi {
			h := (v - float32(mean)) * inv
			xh[j] = h
			yi[j] = h*a.g[j] + a.b[j]
		}
	}
}

// Backward propagates dy and accumulates dGamma/dBeta when trainable.
func (ln *LayerNorm) Backward(dy *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	st := stateOf[lnState](ws, ln)
	tokens, d := dy.Dim(0), dy.Dim(1)
	dx := ws.Get(tokens, d)
	g := ln.Gamma.W.Data

	// Parameter grads: reductions over tokens, parallel over features.
	if !ln.Gamma.Frozen || !ln.Beta.Frozen {
		parallel.ForChunkedArg(d, lnGradArgs{
			dy: dy.Data, xhat: st.xhat,
			gg: ln.Gamma.Grad.Data, gb: ln.Beta.Grad.Data,
			tokens: tokens, d: d,
			wantG: !ln.Gamma.Frozen, wantB: !ln.Beta.Frozen,
		}, lnParamGradChunk)
	}

	// Input grad: dx = (invStd/d) · (d·dŷ − Σdŷ − x̂·Σ(dŷ·x̂)) with
	// dŷ = dy ⊙ gamma.
	parallel.ForChunkedArg(tokens, lnBwdArgs{
		dy: dy.Data, xhat: st.xhat, dx: dx.Data,
		g: g, invStd: st.invStd, d: d,
	}, lnInputGradChunk)
	return dx
}

type lnGradArgs struct {
	dy, xhat, gg, gb []float32
	tokens, d        int
	wantG, wantB     bool
}

func lnParamGradChunk(a lnGradArgs, lo, hi int) {
	for j := lo; j < hi; j++ {
		var sg, sb float64
		for i := 0; i < a.tokens; i++ {
			dyv := float64(a.dy[i*a.d+j])
			sg += dyv * float64(a.xhat[i*a.d+j])
			sb += dyv
		}
		if a.wantG {
			a.gg[j] += float32(sg)
		}
		if a.wantB {
			a.gb[j] += float32(sb)
		}
	}
}

type lnBwdArgs struct {
	dy, xhat, dx, g, invStd []float32
	d                       int
}

func lnInputGradChunk(a lnBwdArgs, lo, hi int) {
	d := a.d
	for i := lo; i < hi; i++ {
		dyi := a.dy[i*d : (i+1)*d]
		xh := a.xhat[i*d : (i+1)*d]
		dxi := a.dx[i*d : (i+1)*d]
		var sum1, sum2 float64
		for j := range dyi {
			dh := float64(dyi[j]) * float64(a.g[j])
			sum1 += dh
			sum2 += dh * float64(xh[j])
		}
		inv := float64(a.invStd[i])
		for j := range dyi {
			dh := float64(dyi[j]) * float64(a.g[j])
			dxi[j] = float32(inv * (dh - sum1/float64(d) - float64(xh[j])*sum2/float64(d)))
		}
	}
}
