package bench

import (
	"fmt"
	"math"

	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// The kernels suite measures the compute cores the whole system is built
// from: the dense GEMM cores (seed naive vs tiled, all three layouts), the
// parallel MatMul driver, the block-sparse attention operators, the
// neuron-sparse MLP kernels, and full causal attention dense vs
// block-sparse. CI runs it in short mode and gates on regressions.

func init() {
	Register("kernels", kernelSuite)
}

func kernelSuite(o Options) []Benchmark {
	var out []Benchmark
	sizes := []int{128, 256, 512}
	if o.Short {
		sizes = []int{128, 256}
	}
	for _, n := range sizes {
		out = append(out, gemmBenchmarks(n)...)
	}
	out = append(out, blockSparseBenchmarks(256, 16)...)
	out = append(out, neuronBenchmarks(256, 1024, 32, 16)...)
	out = append(out, attentionBenchmarks(128, 64)...)
	if !o.Short {
		out = append(out, attentionBenchmarks(256, 64)...)
	}
	return out
}

// gemmBenchmarks covers the three GEMM layouts at n×n×n, naive (the seed
// i-k-j core, kept as the measurement baseline) against the tiled core
// behind the public entry points. Serial calls: these measure the cores,
// not the worker pool; matmul/<n> measures the parallel driver.
func gemmBenchmarks(n int) []Benchmark {
	r := tensor.NewRNG(uint64(n))
	a, b, c := tensor.New(n, n), tensor.New(n, n), tensor.New(n, n)
	r.FillNormal(a, 1)
	r.FillNormal(b, 1)
	flops := 2 * int64(n) * int64(n) * int64(n)
	bytes := 4 * 3 * int64(n) * int64(n)
	// All three layouts take (c, a, b, three dims, lo, hi); at n×n×n every
	// dim (and the leading dimension) is n.
	core := func(fn func(cc, aa, bb []float32, d0, d1, d2, lo, hi int)) func() {
		return func() {
			c.Zero()
			fn(c.Data, a.Data, b.Data, n, n, n, 0, n)
		}
	}
	return []Benchmark{
		{Name: fmt.Sprintf("gemm/dense/naive/%d", n), Flops: flops, Bytes: bytes, Fn: core(tensor.GemmRangeNaive)},
		{Name: fmt.Sprintf("gemm/dense/tiled/%d", n), Flops: flops, Bytes: bytes, Fn: core(tensor.GemmRange)},
		{Name: fmt.Sprintf("gemm/tb/naive/%d", n), Flops: flops, Bytes: bytes, Fn: core(tensor.GemmTBRangeNaive)},
		{Name: fmt.Sprintf("gemm/tb/tiled/%d", n), Flops: flops, Bytes: bytes, Fn: core(tensor.GemmTBRange)},
		{Name: fmt.Sprintf("gemm/ta/naive/%d", n), Flops: flops, Bytes: bytes, Fn: core(tensor.GemmTARangeNaive)},
		{Name: fmt.Sprintf("gemm/ta/tiled/%d", n), Flops: flops, Bytes: bytes, Fn: core(tensor.GemmTARange)},
		{Name: fmt.Sprintf("matmul/%d", n), Flops: flops, Bytes: bytes, Fn: func() { tensor.MatMul(a, b) }},
	}
}

// benchLayout is the local+global causal pattern used by the sparse
// operator benchmarks: sliding window of two block-diagonals plus one sink
// block-column — the Longformer/A-shape family the paper's pool is built
// from.
func benchLayout(nb int) *sparse.Layout {
	return sparse.NewLayout(nb, func(br, bc int) bool {
		return bc <= br && (br-bc < 2 || bc < 1)
	})
}

func blockSparseBenchmarks(s, blk int) []Benchmark {
	nb := s / blk
	hd := 64
	layout := benchLayout(nb)
	r := tensor.NewRNG(uint64(s * blk))
	q, k, v := tensor.New(s, hd), tensor.New(s, hd), tensor.New(s, hd)
	r.FillNormal(q, 1)
	r.FillNormal(k, 1)
	r.FillNormal(v, 1)
	scores := sparse.NewBlockSparse(layout, blk)
	probs := sparse.NewBlockSparse(layout, blk)
	out := tensor.New(s, hd)
	scale := float32(1 / math.Sqrt(float64(hd)))
	nnz := int64(layout.NNZ())
	blockFlops := 2 * int64(blk) * int64(blk) * int64(hd)
	tag := fmt.Sprintf("s%db%d", s, blk)

	// Keep probs realistic (post-softmax) for DSD/DSDT; runs untimed via
	// the Setup hook so filtered runs never pay for it, and idempotently
	// (Zero first) since both benchmarks share it.
	prewarm := func() {
		probs.Zero()
		sparse.SDD(probs, q.Data, k.Data, hd)
		sparse.CausalSoftmax(probs, scale)
	}

	return []Benchmark{
		{Name: "sparse/sdd/" + tag, Flops: nnz * blockFlops, Fn: func() {
			scores.Zero()
			sparse.SDD(scores, q.Data, k.Data, hd)
		}},
		{Name: "sparse/softmax/" + tag, Setup: prewarm, Fn: func() {
			copy(scores.Data, probs.Data)
			sparse.CausalSoftmax(scores, scale)
		}},
		{Name: "sparse/dsd/" + tag, Flops: nnz * blockFlops, Setup: prewarm, Fn: func() {
			out.Zero()
			sparse.DSD(out.Data, probs, v.Data, hd)
		}},
		{Name: "sparse/dsdt/" + tag, Flops: nnz * blockFlops, Setup: prewarm, Fn: func() {
			out.Zero()
			sparse.DSDT(out.Data, probs, v.Data, hd)
		}},
	}
}

func neuronBenchmarks(d, h, tokens, blk int) []Benchmark {
	r := tensor.NewRNG(uint64(d + h))
	w1 := sparse.NewColMajor(d, h)
	w2 := sparse.NewRowMajor(h, d)
	w1d, w2d := tensor.New(d, h), tensor.New(h, d)
	r.FillNormal(w1d, 0.5)
	r.FillNormal(w2d, 0.5)
	w1.SetFromRowMajor(w1d.Data)
	copy(w2.Data, w2d.Data)
	x := tensor.New(tokens, d)
	hidden := tensor.New(tokens, h)
	out := tensor.New(tokens, d)
	r.FillNormal(x, 1)
	r.FillNormal(hidden, 1)
	// Half the neuron blocks active — a mid-range measured density.
	all := sparse.AllBlocks(h, blk)
	blocks := all[:len(all)/2]
	active := int64(len(blocks) * blk)
	tag := fmt.Sprintf("d%dh%d", d, h)
	return []Benchmark{
		{Name: "sparse/fc1/" + tag, Flops: 2 * int64(tokens) * int64(d) * active, Fn: func() {
			hidden.Zero()
			sparse.FC1Sparse(hidden.Data, x.Data, tokens, w1, blocks, blk)
		}},
		{Name: "sparse/fc2/" + tag, Flops: 2 * int64(tokens) * int64(d) * active, Fn: func() {
			out.Zero()
			sparse.FC2Sparse(out.Data, hidden.Data, tokens, w2, blocks, blk)
		}},
	}
}

// attentionBenchmarks runs one full causal-attention head forward, dense
// versus block-sparse (SDD → CausalSoftmax → DSD on the local+global
// layout), the operator-level comparison behind the paper's Figure 12 —
// and attn/multihead, the operator the fine-tune step runs: the combined
// forward trio over four heads of skewed density.
func attentionBenchmarks(s, hd int) []Benchmark {
	blk := 16
	layout := benchLayout(s / blk)
	r := tensor.NewRNG(uint64(s * hd))
	q, k, v := tensor.New(s, hd), tensor.New(s, hd), tensor.New(s, hd)
	r.FillNormal(q, 1)
	r.FillNormal(k, 1)
	r.FillNormal(v, 1)
	out := tensor.New(s, hd)
	scores := sparse.NewBlockSparse(layout, blk)
	scale := float32(1 / math.Sqrt(float64(hd)))
	denseFlops := 4 * int64(s) * int64(s) * int64(hd)
	sparseFlops := 4 * int64(layout.NNZ()) * int64(blk) * int64(blk) * int64(hd)
	tag := fmt.Sprintf("s%dhd%d", s, hd)

	var heads []*sparse.Layout
	for _, p := range []sparse.Pattern{
		{Kind: sparse.KindDense},
		{Kind: sparse.KindLocal, Window: 1},
		{Kind: sparse.KindLocalGlobal, Window: 2, Global: 1},
		{Kind: sparse.KindStrided, Stride: 4},
	} {
		heads = append(heads, p.Build(s/blk))
	}
	combined := sparse.NewCombinedSparseIn(tensor.NewArena(), sparse.Combine(heads), blk)
	outs := tensor.New(len(heads), s*hd)
	var qs, ks, vs, outH [][]float32
	for h := range heads {
		qs, ks, vs, outH = append(qs, q.Data), append(ks, k.Data), append(vs, v.Data), append(outH, outs.Row(h))
	}
	multiFlops := 4 * int64(combined.HL.TotalBlocks()) * int64(blk) * int64(blk) * int64(hd)

	return []Benchmark{
		{Name: "attn/dense/" + tag, Flops: denseFlops, Fn: func() {
			out.Zero()
			sparse.DenseCausalAttention(out.Data, q.Data, k.Data, v.Data, s, hd, scale)
		}},
		{Name: "attn/block/" + tag, Flops: sparseFlops, Fn: func() {
			out.Zero()
			scores.Zero()
			sparse.SDD(scores, q.Data, k.Data, hd)
			sparse.CausalSoftmax(scores, scale)
			sparse.DSD(out.Data, scores, v.Data, hd)
		}},
		{Name: fmt.Sprintf("attn/multihead/h%d%s", len(heads), tag), Flops: multiFlops, Fn: func() {
			outs.Zero()
			clear(combined.Data)
			sparse.MultiHeadSDD(combined, qs, ks, hd)
			sparse.MultiHeadCausalSoftmax(combined, scale)
			sparse.MultiHeadDSD(outH, vs, combined, hd)
		}},
	}
}
