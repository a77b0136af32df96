package experiments

import (
	"time"

	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// Fig12 regenerates Figure 12: dynamic-aware operator performance against
// dense counterparts across sparsity ratios — block-wise sparsity for
// attention, neuron-wise for the MLP. These are real CPU kernel
// measurements of the actual operators in internal/sparse.
func Fig12(o Options) *Report {
	r := &Report{ID: "fig12", Title: "Dynamic operator performance vs dense across sparsity ratios (measured)"}

	seq := o.pick(128, 512)
	blk := o.pick(16, 32)
	hd := o.pick(32, 64)
	tokens := o.pick(128, 512)
	d := o.pick(128, 512)
	hidden := 4 * d
	reps := o.pick(3, 10)
	rng := tensor.NewRNG(o.seed())

	sparsities := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95}

	// --- Attention: SDD + causal softmax + DSD over a block layout.
	nb := seq / blk
	q := make([]float32, seq*hd)
	k := make([]float32, seq*hd)
	v := make([]float32, seq*hd)
	for i := range q {
		q[i] = float32(rng.Norm())
		k[i] = float32(rng.Norm())
		v[i] = float32(rng.Norm())
	}
	out := make([]float32, seq*hd)

	attend := func(layout *sparse.Layout) time.Duration {
		return timeIt(reps, func() {
			m := sparse.NewBlockSparse(layout, blk)
			sparse.SDD(m, q, k, hd)
			sparse.CausalSoftmax(m, 0.125)
			clear(out)
			sparse.DSD(out, m, v, hd)
		})
	}
	// Dense attention is the same operator over the full causal layout.
	denseAttn := attend(sparse.Pattern{Kind: sparse.KindDense}.Build(nb))

	var attnRows [][]string
	for _, sp := range sparsities {
		density := (1 - sp) // fraction of the causal triangle kept
		layout := randomCausalLayout(nb, density*causalFrac(nb), rng)
		elapsed := attend(layout)
		attnRows = append(attnRows, []string{
			pctv(sp), f3(layout.Density()), ms(elapsed), ms(denseAttn),
			speedup(denseAttn.Seconds(), elapsed.Seconds()),
		})
	}
	r.AddSection("Multi-head attention operator (block-wise sparsity)",
		[]string{"Sparsity", "Grid density", "Sparse op (ms)", "Dense op (ms)", "Speedup"}, attnRows)

	// --- MLP: neuron-block FC1 + FC2 vs dense GEMMs.
	x := make([]float32, tokens*d)
	for i := range x {
		x[i] = float32(rng.Norm())
	}
	w1 := sparse.NewColMajor(d, hidden)
	w2 := sparse.NewRowMajor(hidden, d)
	for i := range w1.Data {
		w1.Data[i] = float32(rng.Norm())
	}
	for i := range w2.Data {
		w2.Data[i] = float32(rng.Norm())
	}
	hiddenBuf := make([]float32, tokens*hidden)
	outBuf := make([]float32, tokens*d)
	all := sparse.AllBlocks(hidden, blk)

	denseMLP := timeIt(reps, func() {
		clear(hiddenBuf)
		clear(outBuf)
		sparse.FC1Sparse(hiddenBuf, x, tokens, w1, all, blk)
		sparse.FC2Sparse(outBuf, hiddenBuf, tokens, w2, all, blk)
	})

	var mlpRows [][]string
	for _, sp := range sparsities {
		keep := int(float64(len(all))*(1-sp) + 0.5)
		if keep < 1 {
			keep = 1
		}
		blocks := all[:keep]
		elapsed := timeIt(reps, func() {
			clear(hiddenBuf)
			clear(outBuf)
			sparse.FC1Sparse(hiddenBuf, x, tokens, w1, blocks, blk)
			sparse.FC2Sparse(outBuf, hiddenBuf, tokens, w2, blocks, blk)
		})
		mlpRows = append(mlpRows, []string{
			pctv(sp), itoa(keep), ms(elapsed), ms(denseMLP),
			speedup(denseMLP.Seconds(), elapsed.Seconds()),
		})
	}
	r.AddSection("MLP operator (neuron-wise sparsity)",
		[]string{"Sparsity", "Active blocks", "Sparse op (ms)", "Dense op (ms)", "Speedup"}, mlpRows)

	r.AddNote("Shape to match (paper Fig 12): sparse-operator time falls near-linearly with sparsity; speedups reach 3-5x at high sparsity; at 0%% sparsity the dynamic operator matches dense closely (no format-conversion overhead).")
	return r
}

// causalFrac converts "fraction of the causal triangle" to "fraction of the
// full grid" for randomCausalLayout's parameterization.
func causalFrac(nb int) float64 {
	return float64(nb*(nb+1)) / 2 / float64(nb*nb)
}
