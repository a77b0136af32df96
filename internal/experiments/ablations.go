package experiments

import (
	"longexposure/internal/core"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/tensor"
)

// Ablations probes the design choices DESIGN.md calls out, beyond the
// paper's own ablation study:
//
//  1. component contribution — Long Exposure with attention-only,
//     MLP-only, and both optimizations (real measured step times);
//  2. block-size sweep — the sparsity/overhead trade-off of the block
//     granularity;
//  3. mask-matching policy — mass-weighted vs block-count pool matching
//     (the mass-weighted rule is this implementation's mechanism for
//     honoring recall without collapsing to dense).
func Ablations(o Options) *Report {
	r := &Report{ID: "ablations", Title: "Design-choice ablations (measured, sim scale)"}

	spec := o.simSpec(nn.ActReLU)
	batch, seq, blk := o.simGeometry()
	batches := e2eBatches(spec, batch, seq, o.pick(2, 4), o.seed())
	calib := idsOf(batches, o.pick(2, 3))

	// 1. Component contribution.
	arm := func(disableAttn, disableMLP bool) float64 {
		cfg := core.Config{
			Prime: true, Spec: spec, Method: peft.LoRA, Blk: blk, Seed: o.seed(),
			DisableAttnSparsity: disableAttn, DisableMLPSparsity: disableMLP,
		}
		sys := core.New(cfg)
		sys.PretrainPredictors(calib, predictorTrainCfg(o))
		res := sys.Engine().Run(batches, 1)
		return res.MeanStepTime().Total().Seconds()
	}
	dense := core.NewBaseline(core.Config{Prime: true, Spec: spec, Method: peft.LoRA, Blk: blk, Seed: o.seed()})
	denseT := dense.Run(batches, 1).MeanStepTime().Total().Seconds()
	both := arm(false, false)
	attnOnly := arm(false, true)
	mlpOnly := arm(true, false)
	r.AddSection("Component contribution (ms/step)",
		[]string{"Configuration", "Step time", "Speedup vs dense"},
		[][]string{
			{"Dense baseline", msF(denseT), "1.00x"},
			{"Attention sparsity only", msF(attnOnly), speedup(denseT, attnOnly)},
			{"MLP sparsity only", msF(mlpOnly), speedup(denseT, mlpOnly)},
			{"Both (Long Exposure)", msF(both), speedup(denseT, both)},
		})

	// 2. Block-size sweep.
	var rows [][]string
	for _, b := range blockSizeSweep(seq) {
		cfg := core.Config{Prime: true, Spec: spec, Method: peft.LoRA, Blk: b, Seed: o.seed()}
		sys := core.New(cfg)
		sys.PretrainPredictors(calib, predictorTrainCfg(o))
		attnD, mlpD := sys.Densities(calib)
		res := sys.Engine().Run(batches, 1)
		rows = append(rows, []string{
			itoa(b), f3(attnD), f3(mlpD),
			msF(res.MeanStepTime().Total().Seconds()),
			speedup(denseT, res.MeanStepTime().Total().Seconds()),
		})
	}
	r.AddSection("Block-size sweep",
		[]string{"Blk", "Attn density", "MLP density", "Step time (ms)", "Speedup"}, rows)

	// 3. Matching policy: mass-weighted vs count-based recall.
	sys := core.New(core.Config{Prime: true, Spec: spec, Method: peft.LoRA, Blk: blk, Seed: o.seed()})
	sys.PretrainPredictors(calib, predictorTrainCfg(o))
	ws := tensor.NewArena()
	sys.Model.Forward(batches[0].Inputs, nil, ws)
	var massD, countD float64
	var n int
	for _, b := range sys.Model.Blocks {
		probs := b.Attn.DenseProbs(ws)
		masks, masses := sys.Exposer.HeadMasksWithMass(probs, batch, spec.Config.Heads)
		for h, m := range masks {
			_, lMass := sys.Exposer.MatchToPool(m, masses[h])
			_, lCount := sys.Exposer.MatchToPool(m, nil)
			massD += lMass.Density()
			countD += lCount.Density()
			n++
		}
	}
	r.AddSection("Pool-matching policy (mean matched layout density)",
		[]string{"Policy", "Density"},
		[][]string{
			{"Mass-weighted recall", f3(massD / float64(n))},
			{"Block-count recall", f3(countD / float64(n))},
		})

	r.AddNote("Expected shapes: both components beat either alone; very small blocks raise predictor/launch overhead while very large blocks blur the mask; mass-weighted matching yields sparser layouts at equal fidelity because low-mass straggler blocks no longer force a dense fallback.")
	return r
}

// blockSizeSweep picks block sizes dividing seq.
func blockSizeSweep(seq int) []int {
	var out []int
	for _, b := range []int{4, 8, 16, 32} {
		if seq%b == 0 && seq/b >= 2 {
			out = append(out, b)
		}
	}
	return out
}
