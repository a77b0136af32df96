// Package nn implements the transformer layer stack used for fine-tuning:
// parameters with freeze flags, linear/LoRA/embedding/layer-norm layers,
// multi-head attention and MLP blocks with both dense and block-sparse
// execution paths, and the decoder-only Transformer model.
//
// Layers expose explicit Forward/Backward pairs instead of a generic
// autograd tape: the model is a fixed pipeline of coarse fused kernels —
// exactly how the paper reasons about the computation. What a backward
// needs is saved in per-layer state held by the step workspace (stateOf),
// never on the layer struct, so layers are read-only weights under an
// arena. The sparse paths consume the layouts and neuron-block lists
// produced by internal/exposer and internal/predictor and execute through
// internal/sparse, so "inactive weights drop out of the gradient
// computation" (paper §II-D) is literally what the code does.
package nn

import (
	"fmt"

	"longexposure/internal/tensor"
)

// stateOf returns the saved-for-backward state of one layer invocation:
// the state ws holds for key (the layer itself), created on first use and
// kept across Release. Layer structs hold only weights, so the unit of
// concurrency is the arena: any number of forwards may share one model,
// each with its own arena.
func stateOf[S any](ws *tensor.Arena, key any) *S {
	return ws.StateFor(key, func() any { return new(S) }).(*S)
}

// Parameter is a named weight tensor with its gradient buffer and a freeze
// flag. PEFT methods work by freezing all backbone parameters and leaving
// only the injected/selected ones trainable; the optimizer walks the
// trainable set only.
type Parameter struct {
	Name   string
	W      *tensor.Tensor
	Grad   *tensor.Tensor
	Frozen bool
}

// NewParameter allocates a parameter (and its gradient) of the given shape.
func NewParameter(name string, shape ...int) *Parameter {
	return &Parameter{
		Name: name,
		W:    tensor.New(shape...),
		Grad: tensor.New(shape...),
	}
}

// ZeroGrad clears the gradient buffer.
func (p *Parameter) ZeroGrad() { p.Grad.Zero() }

// NumElems returns the number of scalar weights.
func (p *Parameter) NumElems() int { return p.W.Len() }

// String describes the parameter.
func (p *Parameter) String() string {
	state := "trainable"
	if p.Frozen {
		state = "frozen"
	}
	return fmt.Sprintf("%s%v (%s)", p.Name, p.W.Shape(), state)
}

// ParamSet is an ordered collection of parameters with bulk operations.
type ParamSet []*Parameter

// Trainable returns the subset with Frozen == false, preserving order.
func (ps ParamSet) Trainable() ParamSet {
	var out ParamSet
	for _, p := range ps {
		if !p.Frozen {
			out = append(out, p)
		}
	}
	return out
}

// FreezeAll marks every parameter frozen — the first step of every PEFT
// method.
func (ps ParamSet) FreezeAll() {
	for _, p := range ps {
		p.Frozen = true
	}
}

// ZeroGrads clears every gradient buffer (trainable or not).
func (ps ParamSet) ZeroGrads() {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// NumParams returns the total scalar count, and the trainable scalar count.
func (ps ParamSet) NumParams() (total, trainable int) {
	for _, p := range ps {
		n := p.NumElems()
		total += n
		if !p.Frozen {
			trainable += n
		}
	}
	return
}

// ByName finds a parameter by exact name, or nil.
func (ps ParamSet) ByName(name string) *Parameter {
	for _, p := range ps {
		if p.Name == name {
			return p
		}
	}
	return nil
}
