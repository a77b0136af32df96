package sparse

import (
	"math"
	"testing"

	"longexposure/internal/tensor"
)

// denseMaskedAttention is the element-level reference: causal attention
// where score (i,j) is kept only if the block containing it is active.
func denseMaskedAttention(q, k, v []float32, s, hd int, scale float32, l *Layout, blk int) ([]float32, *tensor.Tensor) {
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
	out := make([]float32, s*hd)
	tensor.GemmRange(out, scores.Data, v, s, hd, s, 0, s)
	return out, scores
}

func randSlices(seed uint64, s, hd int) (q, k, v []float32) {
	r := tensor.NewRNG(seed)
	mk := func() []float32 {
		x := make([]float32, s*hd)
		for i := range x {
			x[i] = float32(r.Norm())
		}
		return x
	}
	return mk(), mk(), mk()
}

func TestSDDMatchesDenseGather(t *testing.T) {
	blk, nb, hd := 4, 3, 5
	s := blk * nb
	q, k, _ := randSlices(1, s, hd)
	l := Pattern{Kind: KindLocal, Window: 2}.Build(nb)
	sp := NewBlockSparse(l, blk)
	SDD(sp, q, k, hd)

	dense := tensor.New(s, s)
	tensor.GemmTBRange(dense.Data, q, k, hd, s, s, 0, s)
	for br := 0; br < nb; br++ {
		for _, bc := range l.RowBlocks(br) {
			id, _ := l.BlockID(br, int(bc))
			blkData := sp.Block(id)
			for i := 0; i < blk; i++ {
				for j := 0; j < blk; j++ {
					want := dense.At(br*blk+i, int(bc)*blk+j)
					got := blkData[i*blk+j]
					if math.Abs(float64(got-want)) > 1e-4 {
						t.Fatalf("block (%d,%d)[%d,%d]: %v vs %v", br, bc, i, j, got, want)
					}
				}
			}
		}
	}
}

func TestSparseAttentionFullLayoutEqualsDense(t *testing.T) {
	blk, nb, hd := 4, 4, 8
	s := blk * nb
	q, k, v := randSlices(2, s, hd)
	scale := float32(1 / math.Sqrt(float64(hd)))

	// Dense reference.
	wantOut := make([]float32, s*hd)
	DenseCausalAttention(wantOut, q, k, v, s, hd, scale)

	// Sparse path with the full causal layout.
	l := Pattern{Kind: KindDense}.Build(nb)
	sp := NewBlockSparse(l, blk)
	SDD(sp, q, k, hd)
	CausalSoftmax(sp, scale)
	gotOut := make([]float32, s*hd)
	DSD(gotOut, sp, v, hd)

	for i := range wantOut {
		if math.Abs(float64(gotOut[i]-wantOut[i])) > 1e-4 {
			t.Fatalf("out[%d]: %v vs %v", i, gotOut[i], wantOut[i])
		}
	}
}

func TestSparseAttentionMatchesMaskedDense(t *testing.T) {
	blk, nb, hd := 4, 5, 6
	s := blk * nb
	q, k, v := randSlices(3, s, hd)
	scale := float32(0.35)

	for _, p := range []Pattern{
		{Kind: KindLocal, Window: 2},
		{Kind: KindLocalGlobal, Window: 1, Global: 1},
		{Kind: KindStrided, Stride: 2},
		{Kind: KindBigBird, Window: 1, Global: 1, RandomPerRow: 1, Seed: 3},
	} {
		l := p.Build(nb)
		wantOut, _ := denseMaskedAttention(q, k, v, s, hd, scale, l, blk)

		sp := NewBlockSparse(l, blk)
		SDD(sp, q, k, hd)
		CausalSoftmax(sp, scale)
		gotOut := make([]float32, s*hd)
		DSD(gotOut, sp, v, hd)

		for i := range wantOut {
			if math.Abs(float64(gotOut[i]-wantOut[i])) > 1e-4 {
				t.Fatalf("%s: out[%d]: %v vs %v", p, i, gotOut[i], wantOut[i])
			}
		}
	}
}

func TestCausalSoftmaxRowsSumToOne(t *testing.T) {
	blk, nb := 4, 4
	q, k, _ := randSlices(4, blk*nb, 7)
	l := Pattern{Kind: KindLocal, Window: 2}.Build(nb)
	sp := NewBlockSparse(l, blk)
	SDD(sp, q, k, 7)
	CausalSoftmax(sp, 0.5)
	dense := sp.ToDense()
	s := dense.Dim(0)
	for i := 0; i < s; i++ {
		var sum float64
		for j := 0; j <= i; j++ {
			v := float64(dense.At(i, j))
			if v < 0 {
				t.Fatalf("negative probability at (%d,%d)", i, j)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
		for j := i + 1; j < s; j++ {
			if dense.At(i, j) != 0 {
				t.Fatalf("causality violated at (%d,%d)", i, j)
			}
		}
	}
}

func TestDSDTMatchesTransposedDense(t *testing.T) {
	blk, nb, n := 3, 4, 5
	s := blk * nb
	l := Pattern{Kind: KindLocalGlobal, Window: 1, Global: 1}.Build(nb)
	sp := NewBlockSparse(l, blk)
	r := tensor.NewRNG(9)
	for i := range sp.Data {
		sp.Data[i] = float32(r.Norm())
	}
	b := make([]float32, s*n)
	for i := range b {
		b[i] = float32(r.Norm())
	}

	got := make([]float32, s*n)
	DSDT(got, sp, b, n)

	spD := sp.ToDense()
	want := make([]float32, s*n)
	tensor.GemmTARange(want, spD.Data, b, s, s, n, 0, s)

	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-4 {
			t.Fatalf("DSDT[%d]: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestSoftmaxBackwardMatchesDense(t *testing.T) {
	blk, nb, hd := 4, 3, 6
	s := blk * nb
	q, k, _ := randSlices(5, s, hd)
	scale := float32(0.4)
	l := Pattern{Kind: KindLocal, Window: 2}.Build(nb)

	// Sparse probabilities.
	p := NewBlockSparse(l, blk)
	SDD(p, q, k, hd)
	CausalSoftmax(p, scale)
	// Random upstream gradient on probabilities.
	r := tensor.NewRNG(11)
	dProb := NewBlockSparse(l, blk)
	for i := range dProb.Data {
		dProb.Data[i] = float32(r.Norm())
	}
	dProbDense := dProb.ToDense() // before in-place backward

	SoftmaxBackward(dProb, p, scale)
	got := dProb.ToDense()

	// Dense reference: per-row softmax backward over the same probabilities,
	// then scaled by `scale`.
	pd := p.ToDense()
	want := tensor.New(s, s)
	for i := 0; i < s; i++ {
		tensor.SoftmaxBackwardRow(want.Row(i), pd.Row(i), dProbDense.Row(i))
		for j := 0; j < s; j++ {
			want.Data[i*s+j] *= scale
		}
	}
	// Compare only on active blocks (inactive are zero on both sides by
	// construction: p=0 there).
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("SoftmaxBackward MaxAbsDiff = %v", d)
	}
}

func TestBlockSparseDenseRoundTrip(t *testing.T) {
	l := Pattern{Kind: KindLocal, Window: 2}.Build(3)
	m := NewBlockSparse(l, 4)
	r := tensor.NewRNG(13)
	for i := range m.Data {
		m.Data[i] = float32(r.Norm())
	}
	d := m.ToDense()
	m2 := NewBlockSparse(l, 4)
	m2.FromDense(d)
	for i := range m.Data {
		if m.Data[i] != m2.Data[i] {
			t.Fatal("FromDense∘ToDense is not identity on active blocks")
		}
	}
}
