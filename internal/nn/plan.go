package nn

import (
	"fmt"

	"longexposure/internal/tensor"
)

// This file is the contextual-sparsity plan surface of the decode path: a
// per-step DecodePlan names exactly which MLP neuron blocks and which
// attention KV-position blocks a step may touch, and a DecodePlanner
// produces one plan per emitted token from whatever runtime estimator the
// caller wires in (internal/predictor's serving planner is the reference
// implementation). The decode kernels treat a nil plan — or a nil
// per-layer entry — as the dense escape hatch: the literal dense code path
// runs, so "density 1.0" degrades to bit-identical dense output by
// construction rather than by kernel equivalence.

// DecodePlan is one sequence's sparsity decision for one decode step.
// Block slices are typically arena-backed (tensor.IntsIn against the step
// workspace) and valid only until its next Release — a plan is consumed
// by exactly one DecodeBatch step.
type DecodePlan struct {
	// Blk is the block size shared by the MLP neuron blocks and the
	// attention KV-position blocks.
	Blk int

	// MLP lists, per layer, the active neuron blocks (ascending indices
	// into hidden/Blk). A nil per-layer slice runs that layer's MLP dense.
	// Unlisted neurons contribute nothing — not even their bias — matching
	// MLP.Forward's sparse contract.
	MLP [][]int

	// Attn lists, per layer, the visible KV-position blocks (ascending
	// indices into positions/Blk). A nil per-layer slice runs that layer's
	// attention dense. Selections apply only to single-row decode steps
	// (the steady-state token loop); prefill and multi-row steps always
	// attend densely. The planner must keep the block containing the
	// current position selected so the causal diagonal stays visible.
	Attn [][]int

	// MLPDensity and AttnDensity are the realized mean densities across
	// layers (dense layers count as 1.0) — recorded by the planner so the
	// engine can aggregate batch-level density without re-deriving it.
	MLPDensity, AttnDensity float64
}

// layerMLP returns a layer's active MLP blocks (nil = dense) and Blk.
func (p *DecodePlan) layerMLP(li int) ([]int, int) {
	if p == nil || li >= len(p.MLP) {
		return nil, 0
	}
	return p.MLP[li], p.Blk
}

// layerAttn returns a layer's visible KV blocks (nil = dense) and Blk.
func (p *DecodePlan) layerAttn(li int) ([]int, int) {
	if p == nil || li >= len(p.Attn) {
		return nil, 0
	}
	return p.Attn[li], p.Blk
}

// DecodePlanner produces per-step sparsity plans for one sequence. A
// planner is sequence-scoped and not safe for concurrent use; concurrent
// sequences each own one (the engine builds one per admitted request).
type DecodePlanner interface {
	// BeginSequence resets the planner and ingests the prefill: the
	// prompt tokens plus the adapter's virtual prompt rows, in cache
	// order, so position summaries cover everything the KV cache holds.
	BeginSequence(prompt []int, ad *DecodeAdapter)

	// PlanStep observes the token about to be decoded at absolute cache
	// position pos (== cache.Len at call time) and returns the step's
	// plan, or nil for a fully dense step. Returned block slices may be
	// arena-backed in ws; they are released with the step.
	PlanStep(id, pos int, ws *tensor.Arena) *DecodePlan
}

// Sparsity mode names for SparsityOptions.Mode.
const (
	// SparsityOff disables contextual sparsity (the zero value).
	SparsityOff = "off"
	// SparsityAuto applies the planner's default densities with its
	// sensitive-layer protections (first/last layer dense, short prefixes
	// dense) — the quality-protecting production mode.
	SparsityAuto = "auto"
	// SparsityForced applies the requested densities on every layer with
	// no protections — the measurement/ablation mode.
	SparsityForced = "forced"
)

// SparsityOptions is the request-level contextual-sparsity control,
// shared verbatim by the serve API ("decode.sparsity" in the generate
// request) and infer.Request. The zero value means off: current dense
// behavior.
type SparsityOptions struct {
	// Mode is "off" (or ""), "auto", or "forced".
	Mode string `json:"mode,omitempty"`
	// MLPDensity and AttnDensity target the fraction of blocks kept per
	// step, in (0, 1]; 0 picks the planner default. 1.0 plans dense.
	MLPDensity  float64 `json:"mlp_density,omitempty"`
	AttnDensity float64 `json:"attn_density,omitempty"`
}

// Enabled reports whether the options request any sparsity.
func (o SparsityOptions) Enabled() bool {
	return o.Mode == SparsityAuto || o.Mode == SparsityForced
}

// Validate rejects out-of-range fields, naming each offender with the
// given prefix (e.g. "decode.sparsity") so API errors point at fields.
func (o SparsityOptions) Validate(prefix string) error {
	switch o.Mode {
	case "", SparsityOff, SparsityAuto, SparsityForced:
	default:
		return fmt.Errorf("%s.mode: unknown mode %q (want \"off\", \"auto\" or \"forced\")", prefix, o.Mode)
	}
	if o.MLPDensity < 0 || o.MLPDensity > 1 {
		return fmt.Errorf("%s.mlp_density: %v outside (0, 1]", prefix, o.MLPDensity)
	}
	if o.AttnDensity < 0 || o.AttnDensity > 1 {
		return fmt.Errorf("%s.attn_density: %v outside (0, 1]", prefix, o.AttnDensity)
	}
	if !o.Enabled() && (o.MLPDensity != 0 || o.AttnDensity != 0) {
		return fmt.Errorf("%s.mode: densities set but mode is %q (want \"auto\" or \"forced\")", prefix, o.Mode)
	}
	return nil
}
