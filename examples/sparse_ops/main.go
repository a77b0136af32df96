// sparse_ops demonstrates the Dynamic-aware Operators directly (paper §VI):
// the offline pattern pool with pre-computed layout lookup tables, online
// per-head combination with offset shifting, the combined block-scheduled
// SDD/DSD attention operator that training runs, and the neuron-block MLP
// kernels — including the numerical equivalence against dense references.
package main

import (
	"fmt"
	"math"
	"time"

	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

func main() {
	const (
		seq, blk, hd = 256, 16, 64
		nb           = seq / blk
	)
	rng := tensor.NewRNG(7)
	q := randSlice(rng, seq*hd)
	k := randSlice(rng, seq*hd)
	v := randSlice(rng, seq*hd)

	// Offline: build the pattern pool once; layouts are lookup tables.
	pool := sparse.NewPool()
	pool.Warm(sparse.DefaultPool(), nb)
	fmt.Printf("offline pool: %d layouts pre-computed for a %d×%d block grid\n", pool.Size(), nb, nb)

	// Online: assign each head an atomic pattern and combine — only offsets
	// are computed here, never layouts.
	heads := []sparse.Pattern{
		{Kind: sparse.KindLocal, Window: 2},
		{Kind: sparse.KindLocalGlobal, Window: 2, Global: 1},
		{Kind: sparse.KindStrided, Stride: 4},
		{Kind: sparse.KindBigBird, Window: 2, Global: 1, RandomPerRow: 2, Seed: 17},
	}
	var layouts []*sparse.Layout
	for _, p := range heads {
		layouts = append(layouts, pool.Get(p, nb))
	}
	combined := sparse.Combine(layouts)
	fmt.Printf("online combine: %d heads → %d block tasks (density %.3f)\n\n",
		combined.NumHeads(), combined.TotalBlocks(), combined.Density())

	// The combined multi-head operator — what training attention runs: one
	// buffer for every head's active blocks, work scheduled per block. The
	// heads share q/k/v here so each can be checked against one reference.
	scale := float32(1 / math.Sqrt(hd))
	var qs, ks, vs, outs [][]float32
	for range layouts {
		qs, ks, vs = append(qs, q), append(ks, k), append(vs, v)
		outs = append(outs, make([]float32, seq*hd))
	}
	start := time.Now()
	probs := sparse.NewCombinedSparseIn(nil, combined, blk)
	sparse.MultiHeadSDD(probs, qs, ks, hd)
	sparse.MultiHeadCausalSoftmax(probs, scale)
	sparse.MultiHeadDSD(outs, vs, probs, hd)
	sparseTime := time.Since(start)

	// Dense reference (full causal attention), once per head.
	ref := make([]float32, seq*hd)
	start = time.Now()
	sparse.DenseCausalAttention(ref, q, k, v, seq, hd, scale)
	denseTime := time.Since(start) * time.Duration(len(layouts))
	fmt.Printf("combined SDD → softmax → DSD over %d heads: %v (dense: %v)\n", len(layouts), sparseTime, denseTime)

	fmt.Println("head  pattern                     blocks  max|Δ| vs masked dense")
	for h, layout := range layouts {
		diff := maskedDiff(outs[h], q, k, v, seq, hd, scale, layout, blk)
		fmt.Printf("%4d  %-26s  %6d  %.2e\n", h, heads[h], layout.NNZ(), diff)
	}

	// Neuron-block MLP kernels with layout-aware weights.
	const tokens, d, hidden = 256, 256, 1024
	x := randSlice(rng, tokens*d)
	w1 := sparse.NewColMajor(d, hidden)
	w2 := sparse.NewRowMajor(hidden, d)
	copy(w1.Data, randSlice(rng, d*hidden))
	copy(w2.Data, randSlice(rng, hidden*d))

	fmt.Println("\nMLP neuron-block kernels (FC1 column-major, FC2 row-major):")
	all := sparse.AllBlocks(hidden, blk)
	for _, frac := range []float64{1.0, 0.5, 0.25, 0.1} {
		blocks := all[:max(1, int(float64(len(all))*frac))]
		hiddenBuf := make([]float32, tokens*hidden)
		outBuf := make([]float32, tokens*d)
		start = time.Now()
		sparse.FC1Sparse(hiddenBuf, x, tokens, w1, blocks, blk)
		sparse.FC2Sparse(outBuf, hiddenBuf, tokens, w2, blocks, blk)
		fmt.Printf("  active %3.0f%% (%3d blocks): %v\n", frac*100, len(blocks), time.Since(start))
	}
}

func randSlice(rng *tensor.RNG, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.Norm())
	}
	return x
}

func maskedDiff(got, q, k, v []float32, s, hd int, scale float32, l *sparse.Layout, blk int) float64 {
	scores := tensor.New(s, s)
	tensor.GemmTBRange(scores.Data, q, k, hd, s, s, 0, s)
	for i := 0; i < s; i++ {
		row := scores.Row(i)
		for j := 0; j < s; j++ {
			if j > i || !l.Active(i/blk, j/blk) {
				row[j] = tensor.NegInf
			} else {
				row[j] *= scale
			}
		}
		tensor.SoftmaxRow(row)
	}
	want := make([]float32, s*hd)
	tensor.GemmRange(want, scores.Data, v, s, hd, s, 0, s)
	var m float64
	for i := range want {
		d := math.Abs(float64(got[i] - want[i]))
		if d > m {
			m = d
		}
	}
	return m
}
