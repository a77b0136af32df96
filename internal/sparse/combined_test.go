package sparse

import (
	"slices"
	"testing"

	"longexposure/internal/parallel"
	"longexposure/internal/tensor"
)

// skewedHeads builds layouts with very different densities — the workload
// shape §VI-A's balancing targets.
func skewedHeads(nb int) []*Layout {
	return []*Layout{
		Pattern{Kind: KindLocal, Window: 1}.Build(nb),
		Pattern{Kind: KindDense}.Build(nb),
		Pattern{Kind: KindLocalGlobal, Window: 2, Global: 1}.Build(nb),
		Pattern{Kind: KindStrided, Stride: 2}.Build(nb),
	}
}

func randHeadBufs(seed uint64, heads, s, hd int) [][]float32 {
	r := tensor.NewRNG(seed)
	out := make([][]float32, heads)
	for h := range out {
		buf := make([]float32, s*hd)
		for i := range buf {
			buf[i] = float32(r.Norm())
		}
		out[h] = buf
	}
	return out
}

// batchedSkewedHeads repeats the skewed layouts once per batch element —
// the batch·heads > heads shape nn.MultiHeadAttention combines.
func batchedSkewedHeads(nb, batch int) []*Layout {
	base := skewedHeads(nb)
	var heads []*Layout
	for i := 0; i < batch*len(base); i++ {
		heads = append(heads, base[i%len(base)])
	}
	return heads
}

func zeroHeadBufs(heads, n int) [][]float32 {
	out := make([][]float32, heads)
	for h := range out {
		out[h] = make([]float32, n)
	}
	return out
}

func requireSameBits(t *testing.T, what string, h int, got, want []float32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s head %d [%d]: %v vs %v", what, h, i, got[i], want[i])
		}
	}
}

func TestMultiHeadSDDMatchesPerHead(t *testing.T) {
	nb, blk, hd := 4, 4, 6
	s := nb * blk
	heads := batchedSkewedHeads(nb, 2)
	hl := Combine(heads)
	q := randHeadBufs(1, len(heads), s, hd)
	k := randHeadBufs(2, len(heads), s, hd)

	c := NewCombinedSparseIn(nil, hl, blk)
	MultiHeadSDD(c, q, k, hd)

	for h, layout := range heads {
		want := NewBlockSparse(layout, blk)
		SDD(want, q[h], k[h], hd)
		requireSameBits(t, "scores", h, c.HeadView(h).Data, want.Data)
	}
}

// TestMultiHeadPipelineMatchesPerHead runs attention forward and backward
// through the combined passes and through the serial per-head kernels, at
// one worker and at four, and requires bit equality: the combined operator
// reschedules the block products, it must not change any of them.
func TestMultiHeadPipelineMatchesPerHead(t *testing.T) {
	nb, blk, hd := 4, 4, 6
	s := nb * blk
	const scale = 0.4
	heads := batchedSkewedHeads(nb, 2)
	n := len(heads)
	q := randHeadBufs(3, n, s, hd)
	k := randHeadBufs(4, n, s, hd)
	v := randHeadBufs(5, n, s, hd)
	dOut := randHeadBufs(6, n, s, hd)

	for _, workers := range []int{1, 4} {
		old := parallel.SetWorkers(workers)
		hl := Combine(heads)
		p := NewCombinedSparseIn(nil, hl, blk)
		MultiHeadSDD(p, q, k, hd)
		MultiHeadCausalSoftmax(p, scale)
		out := zeroHeadBufs(n, s*hd)
		MultiHeadDSD(out, v, p, hd)

		dS := NewCombinedSparseIn(nil, hl, blk)
		MultiHeadSDD(dS, dOut, v, hd)
		MultiHeadSoftmaxBackward(dS, p, scale)
		dq, dk, dv := zeroHeadBufs(n, s*hd), zeroHeadBufs(n, s*hd), zeroHeadBufs(n, s*hd)
		MultiHeadDSD(dq, k, dS, hd)
		MultiHeadDSDT(dk, q, dS, hd)
		MultiHeadDSDT(dv, dOut, p, hd)
		parallel.SetWorkers(old)

		for h, layout := range heads {
			sp := NewBlockSparse(layout, blk)
			SDD(sp, q[h], k[h], hd)
			CausalSoftmax(sp, scale)
			want := make([]float32, s*hd)
			DSD(want, sp, v[h], hd)
			requireSameBits(t, "out", h, out[h], want)

			dProb := NewBlockSparse(layout, blk)
			SDD(dProb, dOut[h], v[h], hd)
			SoftmaxBackward(dProb, sp, scale)
			requireSameBits(t, "dScore", h, dS.HeadView(h).Data, dProb.Data)
			wq, wk, wv := make([]float32, s*hd), make([]float32, s*hd), make([]float32, s*hd)
			DSD(wq, dProb, k[h], hd)
			DSDT(wk, dProb, q[h], hd)
			DSDT(wv, sp, dOut[h], hd)
			requireSameBits(t, "dQ", h, dq[h], wq)
			requireSameBits(t, "dK", h, dk[h], wk)
			requireSameBits(t, "dV", h, dv[h], wv)
		}
	}
}

// TestHeadLayoutsResetRecyclesBacking pins the per-step contract
// nn.MultiHeadAttention relies on: rebuilding a combination in place
// yields exactly what a fresh Combine does and, once warm, allocates
// nothing.
func TestHeadLayoutsResetRecyclesBacking(t *testing.T) {
	dense, local := batchedSkewedHeads(4, 2), []*Layout{Pattern{Kind: KindLocal, Window: 1}.Build(4)}
	var hl HeadLayouts
	hl.Reset(dense)
	hl.Reset(local)
	want := Combine(local)
	if hl.TotalBlocks() != want.TotalBlocks() || !slices.Equal(hl.DataOff, want.DataOff) || !slices.Equal(hl.Tasks, want.Tasks) {
		t.Fatalf("Reset built %+v, Combine built %+v", hl, *want)
	}
	if allocs := testing.AllocsPerRun(10, func() { hl.Reset(dense); hl.Reset(local) }); allocs != 0 {
		t.Fatalf("warm Reset allocates %v times", allocs)
	}
}

func TestHeadViewSharesStorage(t *testing.T) {
	heads := skewedHeads(3)
	hl := Combine(heads)
	c := NewCombinedSparseIn(nil, hl, 2)
	view := c.HeadView(1)
	view.Data[0] = 7
	bb := 4
	if c.Data[hl.DataOff[1]*bb] != 7 {
		t.Fatal("HeadView does not alias combined storage")
	}
	if view.L != heads[1] {
		t.Fatal("HeadView layout mismatch")
	}
}

func TestMultiHeadSDDBufferCountPanics(t *testing.T) {
	heads := skewedHeads(3)
	c := NewCombinedSparseIn(nil, Combine(heads), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MultiHeadSDD(c, make([][]float32, 1), make([][]float32, 1), 2)
}

// BenchmarkBalancedVsPerHead is the multi-worker balance demonstration of
// §VI-A. "per-head" is the serial kernel run head after head, so it does
// not scale with workers; "balanced-tasks" spreads the same block products
// — both arms issue identical tensor.GemmTBRange calls — over the worker
// pool at block granularity, so one dense head among sparse ones cannot
// hold the others up. At one worker (-cpu 1) the two rows must be equal
// within noise: only the task-list bookkeeping differs.
func BenchmarkBalancedVsPerHead(b *testing.B) {
	nb, blk, hd := 16, 16, 64
	s := nb * blk
	heads := []*Layout{
		Pattern{Kind: KindDense}.Build(nb), // one heavy head
		Pattern{Kind: KindLocal, Window: 1}.Build(nb),
		Pattern{Kind: KindLocal, Window: 1}.Build(nb),
		Pattern{Kind: KindLocal, Window: 1}.Build(nb),
	}
	hl := Combine(heads)
	q := randHeadBufs(10, len(heads), s, hd)
	k := randHeadBufs(11, len(heads), s, hd)

	b.Run("balanced-tasks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := NewCombinedSparseIn(nil, hl, blk)
			MultiHeadSDD(c, q, k, hd)
		}
	})
	b.Run("per-head", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for h, l := range heads {
				sp := NewBlockSparse(l, blk)
				SDD(sp, q[h], k[h], hd)
			}
		}
	})
}
