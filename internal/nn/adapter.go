package nn

import (
	"longexposure/internal/tensor"
)

// Adapter is the Houlsby-style bottleneck module inserted after a sublayer:
// y = z + up(relu(down(z))) with a small bottleneck width. The up-projection
// starts at zero so a freshly injected adapter is the identity.
type Adapter struct {
	Dim, Bottleneck int
	Down, Up        *Linear
}

// adapterState is what one Adapter invocation saves for its backward.
type adapterState struct {
	mask *tensor.Tensor // bottleneck ReLU mask
}

// NewAdapter constructs an adapter with near-identity initialization.
func NewAdapter(name string, dim, bottleneck int, rng *tensor.RNG) *Adapter {
	a := &Adapter{
		Dim:        dim,
		Bottleneck: bottleneck,
		Down:       NewLinear(name+".down", dim, bottleneck, rng),
		Up:         NewLinear(name+".up", bottleneck, dim, rng),
	}
	a.Up.W.W.Zero() // identity at injection time
	return a
}

// Params returns the adapter's parameters.
func (a *Adapter) Params() ParamSet {
	return append(a.Down.Params(), a.Up.Params()...)
}

// Forward computes y = z + up(relu(down(z))). ws is the step workspace.
func (a *Adapter) Forward(z *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	h := a.Down.Forward(z, ws)
	stateOf[adapterState](ws, a).mask = tensor.ReLUIn(ws, h, true)
	y := a.Up.Forward(h, ws)
	tensor.AddInto(y, z)
	return y
}

// Backward propagates dy through the bottleneck and the residual.
func (a *Adapter) Backward(dy *tensor.Tensor, ws *tensor.Arena) *tensor.Tensor {
	dh := a.Up.Backward(dy, ws)
	tensor.MulInto(dh, stateOf[adapterState](ws, a).mask)
	dz := a.Down.Backward(dh, ws)
	tensor.AddInto(dz, dy) // residual branch
	return dz
}
