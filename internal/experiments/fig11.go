package experiments

import (
	"fmt"
	"strings"

	"longexposure/internal/core"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// Fig11 regenerates Figure 11: (a) fine-tuning loss curves of Long Exposure
// versus random sparse patterns of matched density, and (b) a visualization
// of the attention predictor's approximate scores against the ground truth.
// Everything here is real sim-scale execution.
func Fig11(o Options) *Report {
	r := &Report{ID: "fig11", Title: "Fine-tuning loss curves and predictor visualization (measured)"}

	spec := o.simSpec(nn.ActReLU)
	batch, seq, blk := o.simGeometry()
	batches := e2eBatches(spec, batch, seq, o.pick(4, 10), o.seed())
	epochs := o.pick(2, 6)

	// Long Exposure arm (also yields the measured densities for the random
	// arms).
	sys := core.New(core.Config{Prime: true, Spec: spec, Method: peft.LoRA, Blk: blk, Seed: o.seed(), LR: 2e-3})
	stats := sys.PretrainPredictors(idsOf(batches, o.pick(2, 3)), predictorTrainCfg(o))
	attnD, mlpD := sys.Densities(idsOf(batches, 2))
	leRes := sys.Engine().Run(batches, epochs)

	// Dense reference arm.
	denseEng := core.NewBaseline(core.Config{Prime: true, Spec: spec, Method: peft.LoRA, Blk: blk, Seed: o.seed(), LR: 2e-3})
	denseRes := denseEng.Run(batches, epochs)

	// Random-attention arm: random causal layouts at the LE density.
	randAttn := core.NewBaseline(core.Config{Prime: true, Spec: spec, Method: peft.LoRA, Blk: blk, Seed: o.seed(), LR: 2e-3})
	randAttn.Planner = &randomPlanner{blk: blk, heads: spec.Config.Heads, attnDensity: attnD, rng: tensor.NewRNG(o.seed() + 31)}
	randAttnRes := randAttn.Run(batches, epochs).Losses

	// Random-MLP arm: random neuron blocks at the LE ratio.
	randMLP := core.NewBaseline(core.Config{Prime: true, Spec: spec, Method: peft.LoRA, Blk: blk, Seed: o.seed(), LR: 2e-3})
	randMLP.Planner = &randomPlanner{blk: blk, hidden: spec.Config.Hidden, mlpRatio: mlpD, rng: tensor.NewRNG(o.seed() + 37)}
	randMLPRes := randMLP.Run(batches, epochs).Losses

	// Section 1: loss checkpoints.
	arms := []struct {
		name   string
		losses []float64
	}{
		{"Dense (reference)", denseRes.Losses},
		{"LongExposure", leRes.Losses},
		{"Random attention mask", randAttnRes},
		{"Random MLP blocks", randMLPRes},
	}
	n := len(denseRes.Losses)
	checkpoints := []int{0, n / 4, n / 2, 3 * n / 4, n - 1}
	headers := []string{"Arm"}
	for _, c := range checkpoints {
		headers = append(headers, fmt.Sprintf("step %d", c+1))
	}
	var rows [][]string
	for _, arm := range arms {
		row := []string{arm.name}
		for _, c := range checkpoints {
			if c < len(arm.losses) {
				row = append(row, f3(arm.losses[c]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	r.AddSection("Loss curves (checkpointed)", headers, rows)

	// Section 2: predictor quality (the paper reports 96.35% MLP recall).
	r.AddSection("Predictor quality", []string{"Metric", "Value"}, [][]string{
		{"Attention mask recall", f3(stats.AttnRecall)},
		{"MLP block recall", f3(stats.MLPRecall)},
		{"Attention density used", f3(attnD)},
		{"MLP density used", f3(mlpD)},
	})

	// Section 3: prediction-vs-target visualization for layer 0, head 0.
	viz := visualizePrediction(sys, batches[0].Inputs, blk)
	r.AddSection("Attention score prediction vs target (layer 0, head 0)",
		[]string{"Prediction", "Target"}, viz)

	r.AddNote("Shape to match (paper Fig 11): Long Exposure's loss tracks the dense curve; random masks converge worse — accurate runtime prediction is what preserves convergence.")
	return r
}

// randomPlanner supplies random sparse patterns of a matched density — the
// Figure 11(a) ablation baselines. A fresh random layout is drawn per layer
// per step, mimicking an uninformed dynamic mask.
type randomPlanner struct {
	blk, heads, hidden int
	attnDensity        float64 // >0 enables random attention layouts
	mlpRatio           float64 // >0 enables random MLP block subsets
	rng                *tensor.RNG
}

// Layer implements nn.Planner.
func (rp *randomPlanner) Layer(int) nn.LayerPlanner { return rp }

// PlanAttention implements nn.LayerPlanner.
func (rp *randomPlanner) PlanAttention(_ *tensor.Tensor, _, seq int) ([]*sparse.Layout, int) {
	if rp.attnDensity <= 0 {
		return nil, 0
	}
	nb := seq / rp.blk
	out := make([]*sparse.Layout, rp.heads)
	for h := range out {
		out[h] = randomCausalLayout(nb, rp.attnDensity, rp.rng)
	}
	return out, rp.blk
}

// PlanMLP implements nn.LayerPlanner.
func (rp *randomPlanner) PlanMLP(_ *tensor.Tensor, _, _ int) ([]int, int) {
	if rp.mlpRatio <= 0 {
		return nil, 0
	}
	nBlk := rp.hidden / rp.blk
	want := int(float64(nBlk)*rp.mlpRatio + 0.5)
	if want < 1 {
		want = 1
	}
	perm := rp.rng.Perm(nBlk)[:want]
	// Sort ascending (insertion sort; want is small).
	for i := 1; i < len(perm); i++ {
		for j := i; j > 0 && perm[j] < perm[j-1]; j-- {
			perm[j], perm[j-1] = perm[j-1], perm[j]
		}
	}
	return perm, rp.blk
}

// randomCausalLayout draws a causal layout whose density over the *full*
// grid is approximately p: diagonal always active, strictly-lower blocks
// active with the probability that hits the target.
func randomCausalLayout(nb int, p float64, rng *tensor.RNG) *sparse.Layout {
	causal := float64(nb*(nb+1)) / 2
	lower := causal - float64(nb)
	q := 0.0
	if lower > 0 {
		q = (p*float64(nb*nb) - float64(nb)) / lower
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Pre-draw so the layout predicate is deterministic for NewLayout's
	// two-pass construction.
	draws := make([]bool, nb*nb)
	for br := 0; br < nb; br++ {
		for bc := 0; bc < br; bc++ {
			draws[br*nb+bc] = rng.Float64() < q
		}
	}
	return sparse.NewLayout(nb, func(br, bc int) bool {
		if bc > br {
			return false
		}
		if bc == br {
			return true
		}
		return draws[br*nb+bc]
	})
}

// visualizePrediction renders side-by-side block heat maps (coarse ASCII)
// of the predictor's approximate block scores and the exposer's target
// mask for one head.
func visualizePrediction(sys *core.System, ids [][]int, blk int) [][]string {
	m := sys.Model
	ws := tensor.NewArena()
	m.Forward(ids, nil, ws)
	b0 := m.Blocks[0]
	batch := len(ids)
	seq := m.TotalSeq(len(ids[0]))

	// Predicted mask.
	pred := sys.Predictors.Layers[0].Attn.PredictMasks(b0.LN1Out(ws), batch, seq)[0]
	// Target mask from true probabilities.
	target := sys.Exposer.HeadMasks(b0.Attn.DenseProbs(ws), batch, sys.Cfg.Spec.Config.Heads)[0]

	nb := seq / blk
	render := func(l *sparse.Layout) []string {
		var lines []string
		for br := 0; br < nb; br++ {
			var sb strings.Builder
			for bc := 0; bc < nb; bc++ {
				switch {
				case bc > br:
					sb.WriteByte('.')
				case l.Active(br, bc):
					sb.WriteByte('#')
				default:
					sb.WriteByte(' ')
				}
			}
			lines = append(lines, sb.String())
		}
		return lines
	}
	p, t := render(pred), render(target)
	rows := make([][]string, nb)
	for i := range rows {
		rows[i] = []string{"`" + p[i] + "`", "`" + t[i] + "`"}
	}
	return rows
}
