package experiments

import (
	"strings"

	"longexposure/internal/core"
	"longexposure/internal/exposer"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/tensor"
)

// Fig4 regenerates the paper's motivating observation (Figure 4): the
// sparsity visible for a *single token* versus the shadowy overlap of a
// *sequence*, in both multi-head attention and the MLP block — measured on
// real activations of the primed sim model.
func Fig4(o Options) *Report {
	r := &Report{ID: "fig4", Title: "Shadowy sparsity: single-token vs sequence-level sparsity (measured)"}

	spec := o.simSpec(nn.ActReLU)
	batch, seq, blk := o.simGeometry()
	sys := core.New(core.Config{Prime: true, Spec: spec, Method: peft.LoRA, Blk: blk, Seed: o.seed()})
	batches := e2eBatches(spec, batch, seq, 1, o.seed())
	sys.Model.Forward(batches[0].Inputs, nil, nil)

	// MLP side (Fig 4c/4d): per-token sparsity vs overall (AND-reduced)
	// sparsity per layer.
	var mlpRows [][]string
	for li, b := range sys.Model.Blocks {
		mask := b.MLP.ActivationMask(nil)
		mlpRows = append(mlpRows, []string{
			itoa(li),
			f3(exposer.PerTokenMLPSparsity(mask)),
			f3(exposer.ShadowyMLPSparsity(mask)),
		})
	}
	r.AddSection("MLP activations: per-token vs overall sparsity",
		[]string{"Layer", "Per-token sparsity (Fig 4c)", "Overall sparsity (Fig 4d)"}, mlpRows)

	// Attention side (Fig 4a/4b): the per-row block need of a single late
	// token vs the union over the whole sequence, layer 0.
	b0 := sys.Model.Blocks[0]
	probs := b0.Attn.DenseProbs(nil)
	masks := sys.Exposer.HeadMasks(probs, batch, spec.Config.Heads)
	nb := seq / blk
	var attnRows [][]string
	for h, m := range masks {
		lastRowNeed := singleRowNeed(probs[h], blk, sys.Exposer.Config().AttnThreshold)
		attnRows = append(attnRows, []string{
			itoa(h),
			f3(1 - float64(lastRowNeed)/float64(nb)),
			f3(1 - float64(m.NNZ())/float64(nb*(nb+1)/2)),
		})
	}
	r.AddSection("Attention (layer 0): single-token vs sequence mask sparsity per head",
		[]string{"Head", "Last-token row sparsity (Fig 4a)", "Sequence mask sparsity (Fig 4b)"}, attnRows)

	// A small heat map of one head's sequence-level probabilities.
	viz := probHeatmap(probs[0], blk)
	r.AddSection("Attention probability heat map (layer 0, head 0; █▓▒░ by block mass)",
		[]string{"Blocks"}, viz)

	r.AddNote("The shadowy effect: each token's pattern is much sparser than the sequence union — overall MLP sparsity collapses relative to per-token sparsity, and sequence masks are denser than single-token needs (paper Fig 4).")
	return r
}

// singleRowNeed counts the blocks the *last* token's attention row needs
// under the exposer threshold.
func singleRowNeed(p *tensor.Tensor, blk int, theta float64) int {
	s := p.Dim(0)
	i := s - 1
	row := p.Row(i)
	var peak float32
	for j := 0; j <= i; j++ {
		if row[j] > peak {
			peak = row[j]
		}
	}
	cut := float32(theta) * peak
	need := map[int]bool{i / blk: true}
	for j := 0; j <= i; j++ {
		if row[j] >= cut {
			need[j/blk] = true
		}
	}
	return len(need)
}

// probHeatmap renders block attention mass as coarse ASCII shades.
func probHeatmap(p *tensor.Tensor, blk int) [][]string {
	s := p.Dim(0)
	nb := s / blk
	mass := make([]float64, nb*nb)
	var peak float64
	for i := 0; i < s; i++ {
		for j := 0; j <= i; j++ {
			mass[(i/blk)*nb+j/blk] += float64(p.At(i, j))
		}
	}
	for _, v := range mass {
		if v > peak {
			peak = v
		}
	}
	shades := []rune{' ', '░', '▒', '▓', '█'}
	rows := make([][]string, nb)
	for br := 0; br < nb; br++ {
		var sb strings.Builder
		for bc := 0; bc < nb; bc++ {
			if bc > br {
				sb.WriteByte('.')
				continue
			}
			v := mass[br*nb+bc] / peak
			idx := int(v * float64(len(shades)-1))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			sb.WriteRune(shades[idx])
		}
		rows[br] = []string{"`" + sb.String() + "`"}
	}
	return rows
}
