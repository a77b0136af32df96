package experiments

import (
	"fmt"
	"time"

	"longexposure/internal/core"
	"longexposure/internal/exposer"
	"longexposure/internal/gpusim"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// Fig9 regenerates Figure 9: per-layer sparsity ratios and the performance
// obtained from them, for both multi-head attention and the MLP block.
// Sparsity ratios are measured on real activations of the sim-scale model;
// per-layer times are measured by running the actual CPU kernels dense vs
// sparse, plus a modeled GPU comparison that includes the unstructured
// "shadowy" execution mode.
func Fig9(o Options) *Report {
	r := &Report{ID: "fig9", Title: "Per-layer sparsity ratio and corresponding performance"}

	spec := o.simSpec(nn.ActReLU)
	batch, seq, blk := o.simGeometry()
	sys := core.New(core.Config{Prime: true, Spec: spec, Method: peft.LoRA, Blk: blk, Seed: o.seed()})
	batches := e2eBatches(spec, batch, seq, 2, o.seed())
	sys.PretrainPredictors(idsOf(batches, 1), predictorTrainCfg(o))

	// One dense forward to populate ground-truth activations.
	ws := tensor.NewArena()
	sys.Model.Forward(batches[0].Inputs, nil, ws)

	nb := seq / blk
	pool := sys.Exposer.Pool()
	lfLayout := pool.Get(exposer.LongformerPattern(), nb)
	bbLayout := pool.Get(exposer.BigBirdPattern(), nb)
	lfSparsity := exposer.AttentionSparsity([]*sparse.Layout{lfLayout})
	bbSparsity := exposer.AttentionSparsity([]*sparse.Layout{bbLayout})

	// Section 1: attention sparsity ratios per layer.
	var attnRows [][]string
	leLayouts := make([][]*sparse.Layout, len(sys.Model.Blocks))
	for li, b := range sys.Model.Blocks {
		probs := b.Attn.DenseProbs(ws)
		masks := sys.Exposer.HeadMasks(probs, batch, spec.Config.Heads)
		_, layouts := sys.Exposer.ExposeAttention(probs, batch, spec.Config.Heads)
		leLayouts[li] = layouts
		shadowy := exposer.AttentionSparsity([]*sparse.Layout{exposer.UniformMask(masks)})
		le := exposer.AttentionSparsity(layouts)
		attnRows = append(attnRows, []string{
			itoa(li), f3(shadowy), f3(lfSparsity), f3(bbSparsity), f3(le),
		})
	}
	r.AddSection("Multi-head attention sparsity ratio per layer (measured)",
		[]string{"Layer", "Shadowy (uniform)", "Longformer", "BigBird", "LongExposure"}, attnRows)

	// Section 2: MLP sparsity ratios per layer at threshold sweep.
	thresholds := []float64{0.01, 0.02, 0.03, 0.05}
	var mlpRows [][]string
	leBlocks := make([][]int, len(sys.Model.Blocks))
	for li, b := range sys.Model.Blocks {
		mask := b.MLP.ActivationMask(ws)
		hidden := b.MLP.HiddenActivations(ws)
		shadowy := exposer.ShadowyMLPSparsity(mask)
		row := []string{itoa(li), f3(shadowy)}
		for ti, th := range thresholds {
			blocks := exposer.FilterNeuronBlocksAt(hidden, blk, th)
			if ti == 1 { // the 2% default drives the timing section
				leBlocks[li] = blocks
			}
			row = append(row, f3(exposer.NeuronBlockSparsity(blocks, spec.Config.Hidden, blk)))
		}
		mlpRows = append(mlpRows, row)
	}
	r.AddSection("MLP block sparsity ratio per layer (measured; thresholds as %% of peak importance)",
		[]string{"Layer", "Shadowy (overall)", "Thold=1%", "Thold=2%", "Thold=3%", "Thold=5%"}, mlpRows)

	// Section 3: per-layer execution time, real CPU kernels, on a second
	// arena released every rep (ws still backs the layer inputs).
	reps := o.pick(3, 20)
	tws := tensor.NewArena()
	var timeRows [][]string
	for li, b := range sys.Model.Blocks {
		x := b.LN1Out(ws)
		dense := timeIt(reps, func() { b.Attn.Forward(x, batch, seq, nil, 0, tws); tws.Release() })
		sparseT := timeIt(reps, func() { b.Attn.Forward(x, batch, seq, leLayouts[li], blk, tws); tws.Release() })

		x2 := b.LN2Out(ws)
		mDense := timeIt(reps, func() { b.MLP.Forward(x2, nil, 0, tws); tws.Release() })
		mSparse := timeIt(reps, func() { b.MLP.Forward(x2, leBlocks[li], blk, tws); tws.Release() })

		timeRows = append(timeRows, []string{
			itoa(li),
			ms(dense), ms(sparseT), speedup(dense.Seconds(), sparseT.Seconds()),
			ms(mDense), ms(mSparse), speedup(mDense.Seconds(), mSparse.Seconds()),
		})
	}
	r.AddSection("Per-layer forward time, real CPU kernels (mean of reps)",
		[]string{"Layer", "Attn dense", "Attn LE", "Speedup", "MLP dense", "MLP LE", "Speedup"}, timeRows)

	// Section 4: modeled GPU per-layer comparison including the
	// unstructured shadowy execution (which loses to dense — the paper's
	// key negative result for naive sparsity).
	dev := gpusim.A100()
	cal := measureDensities(o, nn.ActReLU)
	denseK := gpusim.ScoreKernels("scores", 4, 32, 1024, 64, 1, gpusim.KDenseGEMM)
	shadowK := gpusim.ScoreKernels("scores", 4, 32, 1024, 64, 0.6, gpusim.KUnstructured)
	leK := gpusim.ScoreKernels("scores", 4, 32, 1024, 64, cal.AttnDensity, gpusim.KBlockSparse)
	mlpDenseK := gpusim.MLPKernels("fc", 4096, 2048, 8192, 1, gpusim.KDenseGEMM)
	mlpShadowK := gpusim.MLPKernels("fc", 4096, 2048, 8192, 0.6, gpusim.KUnstructured)
	mlpLEK := gpusim.MLPKernels("fc", 4096, 2048, 8192, cal.MLPDensity, gpusim.KNeuronSparse)
	r.AddSection("Modeled GPU operator times (OPT-1.3B-shaped layer, A100)",
		[]string{"Operator", "Dense", "Shadowy (unstructured)", "LongExposure"},
		[][]string{
			{"Attention scores", ms(dev.Time(denseK)), ms(dev.Time(shadowK)), ms(dev.Time(leK))},
			{"MLP FC", ms(dev.Time(mlpDenseK)), ms(dev.Time(mlpShadowK)), ms(dev.Time(mlpLEK))},
		})

	r.AddNote("Shape to match (paper Fig 9): head-specific masks expose more sparsity than the uniform shadowy mask; Longformer/BigBird are sparser but pattern-blind; MLP sparsity rises with the threshold; unstructured shadowy execution is slower than dense while Long Exposure is faster (paper: 1.78x attention, 4.22x MLP).")
	return r
}

// timeIt measures the mean wall-clock of f over n runs.
func timeIt(n int, f func()) time.Duration {
	if n < 1 {
		n = 1
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start) / time.Duration(n)
}

var _ = fmt.Sprintf
