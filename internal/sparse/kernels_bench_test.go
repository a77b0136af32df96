package sparse

import (
	"fmt"
	"math"
	"testing"

	"longexposure/internal/parallel"
	"longexposure/internal/tensor"
)

// kernelRow is one timed kernel call with the FLOPs and bytes one call
// declares (0: not reported).
type kernelRow struct {
	name         string
	flops, bytes int64
	run          func()
}

// benchRows runs each row as a sub-benchmark of its own name, reporting
// MB/s from the declared bytes, GFLOP/s and allocations.
func benchRows(b *testing.B, rows []kernelRow) {
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			b.SetBytes(r.bytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.run()
			}
			if r.flops > 0 {
				b.ReportMetric(float64(r.flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			}
		})
	}
}

// BenchmarkKernels measures the dynamic sparse operators: the block-sparse
// attention trio (sparse/), one causal-attention head dense against
// block-sparse and the combined multi-head forward the fine-tune step runs
// (attn/), the neuron-sparse MLP kernels (sparse/fc*), and the 2:4
// structured-sparse matvec against the dense TB core (nm/).
func BenchmarkKernels(b *testing.B) {
	rows := kernelRows()
	if !testing.Short() {
		rows = append(rows, attentionRows(256, 64)...)
	}
	benchRows(b, rows)
}

// allocatingRows are the rows that allocate by design.
var allocatingRows = map[string]bool{
	"attn/dense/s128hd64": true, // returns a fresh scores tensor
	"nm/24/m8r1024c1024":  true, // MulTB makes its token-pane scratch
}

// TestKernelRowsDoNotAllocate pins every other BenchmarkKernels row at
// exactly zero allocations per call, at one worker.
func TestKernelRowsDoNotAllocate(t *testing.T) {
	old := parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)
	for _, r := range kernelRows() {
		if allocatingRows[r.name] {
			continue
		}
		if n := testing.AllocsPerRun(1, r.run); n != 0 {
			t.Errorf("%s allocates %v/op, want 0", r.name, n)
		}
	}
}

func kernelRows() []kernelRow {
	rows := blockSparseRows(256, 16)
	rows = append(rows, neuronRows(256, 1024, 32, 16)...)
	rows = append(rows, attentionRows(128, 64)...)
	return append(rows, nmRows(1024, 1024)...)
}

// benchLayout is the local+global causal pattern: a sliding window of two
// block-diagonals plus one sink block-column — the Longformer/A-shape
// family the paper's pattern pool is built from.
func benchLayout(nb int) *Layout {
	return NewLayout(nb, func(br, bc int) bool {
		return bc <= br && (br-bc < 2 || bc < 1)
	})
}

// blockSparseRows times SDD, CausalSoftmax, DSD and DSDT one head at a
// time on benchLayout, with post-softmax probabilities for the DSD pair.
func blockSparseRows(s, blk int) []kernelRow {
	const hd = 64
	layout := benchLayout(s / blk)
	r := tensor.NewRNG(uint64(s * blk))
	q, k, v := tensor.New(s, hd), tensor.New(s, hd), tensor.New(s, hd)
	r.FillNormal(q, 1)
	r.FillNormal(k, 1)
	r.FillNormal(v, 1)
	scores := NewBlockSparse(layout, blk)
	probs := NewBlockSparse(layout, blk)
	out := tensor.New(s, hd)
	scale := float32(1 / math.Sqrt(float64(hd)))
	SDD(probs, q.Data, k.Data, hd)
	CausalSoftmax(probs, scale)
	flops := int64(layout.NNZ()) * 2 * int64(blk) * int64(blk) * hd
	tag := fmt.Sprintf("s%db%d", s, blk)
	return []kernelRow{
		{"sparse/sdd/" + tag, flops, 0, func() {
			scores.Zero()
			SDD(scores, q.Data, k.Data, hd)
		}},
		{"sparse/softmax/" + tag, 0, 0, func() {
			copy(scores.Data, probs.Data)
			CausalSoftmax(scores, scale)
		}},
		{"sparse/dsd/" + tag, flops, 0, func() {
			out.Zero()
			DSD(out.Data, probs, v.Data, hd)
		}},
		{"sparse/dsdt/" + tag, flops, 0, func() {
			out.Zero()
			DSDT(out.Data, probs, v.Data, hd)
		}},
	}
}

// neuronRows times FC1Sparse and FC2Sparse with half the neuron blocks
// active, a mid-range measured density.
func neuronRows(d, h, tokens, blk int) []kernelRow {
	r := tensor.NewRNG(uint64(d + h))
	w1, w2 := NewColMajor(d, h), NewRowMajor(h, d)
	w1d, w2d := tensor.New(d, h), tensor.New(h, d)
	r.FillNormal(w1d, 0.5)
	r.FillNormal(w2d, 0.5)
	w1.SetFromRowMajor(w1d.Data)
	copy(w2.Data, w2d.Data)
	x, hidden, out := tensor.New(tokens, d), tensor.New(tokens, h), tensor.New(tokens, d)
	r.FillNormal(x, 1)
	r.FillNormal(hidden, 1)
	all := AllBlocks(h, blk)
	blocks := all[:len(all)/2]
	flops := 2 * int64(tokens) * int64(d) * int64(len(blocks)*blk)
	tag := fmt.Sprintf("d%dh%d", d, h)
	return []kernelRow{
		{"sparse/fc1/" + tag, flops, 0, func() {
			hidden.Zero()
			FC1Sparse(hidden.Data, x.Data, tokens, w1, blocks, blk)
		}},
		{"sparse/fc2/" + tag, flops, 0, func() {
			out.Zero()
			FC2Sparse(out.Data, hidden.Data, tokens, w2, blocks, blk)
		}},
	}
}

// attentionRows times one causal-attention head forward, dense against
// block-sparse (SDD → CausalSoftmax → DSD on benchLayout) — the operator
// comparison behind the paper's Figure 12 — and the combined multi-head
// forward trio over four heads of skewed density.
func attentionRows(s, hd int) []kernelRow {
	const blk = 16
	layout := benchLayout(s / blk)
	r := tensor.NewRNG(uint64(s * hd))
	q, k, v := tensor.New(s, hd), tensor.New(s, hd), tensor.New(s, hd)
	r.FillNormal(q, 1)
	r.FillNormal(k, 1)
	r.FillNormal(v, 1)
	out := tensor.New(s, hd)
	scores := NewBlockSparse(layout, blk)
	scale := float32(1 / math.Sqrt(float64(hd)))
	tag := fmt.Sprintf("s%dhd%d", s, hd)

	var heads []*Layout
	for _, p := range []Pattern{
		{Kind: KindDense},
		{Kind: KindLocal, Window: 1},
		{Kind: KindLocalGlobal, Window: 2, Global: 1},
		{Kind: KindStrided, Stride: 4},
	} {
		heads = append(heads, p.Build(s/blk))
	}
	combined := NewCombinedSparseIn(tensor.NewArena(), Combine(heads), blk)
	outs := tensor.New(len(heads), s*hd)
	var qs, ks, vs, outH [][]float32
	for h := range heads {
		qs, ks, vs, outH = append(qs, q.Data), append(ks, k.Data), append(vs, v.Data), append(outH, outs.Row(h))
	}
	blockFlops := 4 * int64(blk) * int64(blk) * int64(hd)
	return []kernelRow{
		{"attn/dense/" + tag, 4 * int64(s) * int64(s) * int64(hd), 0, func() {
			out.Zero()
			DenseCausalAttention(out.Data, q.Data, k.Data, v.Data, s, hd, scale)
		}},
		{"attn/block/" + tag, int64(layout.NNZ()) * blockFlops, 0, func() {
			out.Zero()
			scores.Zero()
			SDD(scores, q.Data, k.Data, hd)
			CausalSoftmax(scores, scale)
			DSD(out.Data, scores, v.Data, hd)
		}},
		{fmt.Sprintf("attn/multihead/h%d%s", len(heads), tag), int64(combined.HL.TotalBlocks()) * blockFlops, 0, func() {
			outs.Zero()
			clear(combined.Data)
			MultiHeadSDD(combined, qs, ks, hd)
			MultiHeadCausalSoftmax(combined, scale)
			MultiHeadDSD(outH, vs, combined, hd)
		}},
	}
}

// nmRows compares the 2:4 structured-sparse kernels against the dense TB
// core on the same [rows → cols] matrix: half the multiply-adds and 0.625×
// the weight bytes, at m = 1 (the gather) and m = 8 (the token-blocked
// MulTB, where the metadata loads amortize across four-token panes).
func nmRows(rows, cols int) []kernelRow {
	r := tensor.NewRNG(uint64(rows * 2))
	w := tensor.New(rows, cols)
	r.FillNormal(w, 1)
	nm := PackNM(w.Data, rows, cols, 2, 4)
	const mb = 8
	x, y := tensor.New(mb, cols), tensor.New(mb, rows)
	r.FillNormal(x, 1)
	var out []kernelRow
	for _, m := range []int{1, mb} {
		act := 4 * int64(m) * int64(rows+cols)
		flops := 2 * int64(m) * int64(rows) * int64(cols)
		tag := fmt.Sprintf("m%dr%dc%d", m, rows, cols)
		out = append(out,
			kernelRow{"nm/dense/" + tag, flops, act + 4*int64(rows)*int64(cols), func() {
				y.Zero()
				tensor.GemmTBRange(y.Data, x.Data, w.Data, cols, rows, rows, 0, m)
			}},
			kernelRow{"nm/24/" + tag, flops / 2, act + nm.Bytes(), func() {
				y.Zero()
				nm.MulTB(y.Data, x.Data, m)
			}},
		)
	}
	return out
}
