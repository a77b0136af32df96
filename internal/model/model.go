// Package model defines the model zoo of the paper's evaluation (Table II):
// the OPT family (ReLU MLPs — both attention and MLP sparsity apply) and the
// GPT-2 family (GeLU MLPs — attention-only optimization, §VII-D), plus
// scaled-down "sim" variants that train for real on CPU.
//
// The full-size configs are the paper's reference shapes (Table II); the
// sim configs drive the actual fine-tuning runs every experiment measures.
package model

import (
	"fmt"

	"longexposure/internal/nn"
)

// Family tags the model lineage, which determines the activation function.
type Family string

const (
	// FamilyOPT uses ReLU activations (sparsity in attention and MLP).
	FamilyOPT Family = "OPT"
	// FamilyGPT2 uses GeLU activations (attention sparsity only).
	FamilyGPT2 Family = "GPT-2"
)

// Spec is a named model configuration.
type Spec struct {
	Family Family
	Config nn.Config
}

// SupportsMLPSparsity reports whether the neuron-sparse MLP path applies
// (ReLU models only).
func (s Spec) SupportsMLPSparsity() bool { return s.Config.Act == nn.ActReLU }

// ParamCount returns the analytic parameter count of the configuration:
// embeddings + per-layer (attention 4·d² + 4·d, MLP 8·d² + 5·d, layer norms
// 4·d) + final norm + untied LM head.
func (s Spec) ParamCount() int64 {
	c := s.Config
	d := int64(c.Dim)
	v := int64(c.Vocab)
	L := int64(c.Layers)
	h := int64(c.Hidden)

	emb := v*d + int64(c.MaxSeq)*d
	attn := 4*d*d + 4*d
	mlp := d*h + h + h*d + d
	norms := 4 * d
	head := d*v + v
	return emb + L*(attn+mlp+norms) + 2*d + head
}

// String renders "OPT-1.3B" style names.
func (s Spec) String() string { return s.Config.Name }

// The paper's evaluation models (Table II). Dimensions follow the published
// OPT and GPT-2 architectures.

// OPT125M returns the OPT-125M configuration.
func OPT125M() Spec {
	return Spec{FamilyOPT, nn.Config{Name: "OPT-125M", Vocab: 50272, Dim: 768, Layers: 12, Heads: 12, Hidden: 3072, MaxSeq: 2048, Act: nn.ActReLU}}
}

// OPT350M returns the OPT-350M configuration.
func OPT350M() Spec {
	return Spec{FamilyOPT, nn.Config{Name: "OPT-350M", Vocab: 50272, Dim: 1024, Layers: 24, Heads: 16, Hidden: 4096, MaxSeq: 2048, Act: nn.ActReLU}}
}

// OPT1p3B returns the OPT-1.3B configuration.
func OPT1p3B() Spec {
	return Spec{FamilyOPT, nn.Config{Name: "OPT-1.3B", Vocab: 50272, Dim: 2048, Layers: 24, Heads: 32, Hidden: 8192, MaxSeq: 2048, Act: nn.ActReLU}}
}

// OPT2p7B returns the OPT-2.7B configuration.
func OPT2p7B() Spec {
	return Spec{FamilyOPT, nn.Config{Name: "OPT-2.7B", Vocab: 50272, Dim: 2560, Layers: 32, Heads: 32, Hidden: 10240, MaxSeq: 2048, Act: nn.ActReLU}}
}

// GPT2Large returns the GPT2-Large (774M) configuration.
func GPT2Large() Spec {
	return Spec{FamilyGPT2, nn.Config{Name: "GPT2-Large", Vocab: 50257, Dim: 1280, Layers: 36, Heads: 20, Hidden: 5120, MaxSeq: 1024, Act: nn.ActGeLU}}
}

// GPT2XL returns the GPT2-XL (1.5B) configuration.
func GPT2XL() Spec {
	return Spec{FamilyGPT2, nn.Config{Name: "GPT2-XL", Vocab: 50257, Dim: 1600, Layers: 48, Heads: 25, Hidden: 6400, MaxSeq: 1024, Act: nn.ActGeLU}}
}

// ByName resolves a paper model by its Table II name.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Config.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("model: unknown model %q", name)
}

// All lists every paper configuration.
func All() []Spec {
	return []Spec{OPT125M(), OPT350M(), OPT1p3B(), OPT2p7B(), GPT2Large(), GPT2XL()}
}

// Sim returns a CPU-trainable miniature preserving the named model's shape
// ratios (heads, hidden = 4·dim, ReLU/GeLU) so sparsity statistics measured
// on it transfer qualitatively. The miniature keeps the original's name with
// a "sim-" prefix.
func Sim(base Spec) Spec {
	cfg := nn.Config{
		Name:   "sim-" + base.Config.Name,
		Vocab:  128,
		Dim:    64,
		Layers: 4,
		Heads:  4,
		Hidden: 256,
		MaxSeq: 160,
		Act:    base.Config.Act,
	}
	return Spec{Family: base.Family, Config: cfg}
}

// SimSmall is an even smaller config for fast unit tests and examples.
func SimSmall(act nn.Activation) Spec {
	fam := FamilyOPT
	if act == nn.ActGeLU {
		fam = FamilyGPT2
	}
	return Spec{fam, nn.Config{Name: "sim-small", Vocab: 64, Dim: 32, Layers: 2, Heads: 2, Hidden: 64, MaxSeq: 96, Act: act}}
}
