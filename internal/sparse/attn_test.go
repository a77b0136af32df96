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
	tensor.GemmRange(out, scores.Data, v, s, hd, s, hd, 0, s)
	return out, scores
}

// softmaxBackwardRow is the dense reference softmax backward for one row:
// dst_j += p_j · (dprob_j − Σ_k p_k dprob_k).
func softmaxBackwardRow(dst, p, dprob []float32) {
	var dot float64
	for k := range p {
		dot += float64(p[k]) * float64(dprob[k])
	}
	for j := range p {
		dst[j] += p[j] * (dprob[j] - float32(dot))
	}
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

	// Sparse path with the full causal layout, against the dense
	// reference (every block active: plain causal masking).
	l := Pattern{Kind: KindDense}.Build(nb)
	wantOut, wantP := denseMaskedAttention(q, k, v, s, hd, scale, l, blk)
	sp := NewBlockSparse(l, blk)
	SDD(sp, q, k, hd)
	CausalSoftmax(sp, scale)
	gotOut := make([]float32, s*hd)
	DSD(gotOut, sp, v, hd)

	// Per score the same k-ascending dot, per row the same softmax
	// rounding, per output the same key order: equal bit for bit.
	for i := range wantOut {
		if math.Float32bits(gotOut[i]) != math.Float32bits(wantOut[i]) {
			t.Fatalf("out[%d]: %v vs %v", i, gotOut[i], wantOut[i])
		}
	}
	gotP := sp.ToDense()
	for i := range wantP.Data {
		if math.Float32bits(gotP.Data[i]) != math.Float32bits(wantP.Data[i]) {
			t.Fatalf("probs[%d]: %v vs %v", i, gotP.Data[i], wantP.Data[i])
		}
	}
}

// TestSoftmaxRowMatchesCausalSoftmax pins the rounding the two softmaxes
// share: on a one-block layout, each row of CausalSoftmax equals
// tensor.SoftmaxRow over the same scaled, causally masked row bit for bit
// — the equality dense training attention and cached decode rest on.
func TestSoftmaxRowMatchesCausalSoftmax(t *testing.T) {
	for _, s := range []int{1, 7, 128, 300} {
		r := tensor.NewRNG(uint64(40 + s))
		scale := float32(0.37)
		sp := NewBlockSparse(Pattern{Kind: KindDense}.Build(1), s)
		for i := range sp.Data {
			sp.Data[i] = float32(r.Norm()) * 4
		}
		want := append([]float32(nil), sp.Data...)
		CausalSoftmax(sp, scale)
		for i := 0; i < s; i++ {
			row := want[i*s : (i+1)*s]
			for j := range row {
				if j <= i {
					row[j] *= scale
				} else {
					row[j] = tensor.NegInf
				}
			}
			tensor.SoftmaxRow(row)
		}
		for i := range want {
			if math.Float32bits(sp.Data[i]) != math.Float32bits(want[i]) {
				t.Fatalf("s=%d: entry (%d,%d): CausalSoftmax %v, SoftmaxRow %v", s, i/s, i%s, sp.Data[i], want[i])
			}
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
		softmaxBackwardRow(want.Row(i), pd.Row(i), dProbDense.Row(i))
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

// TestSoftmaxBackwardMatchesNumeric checks the training softmax pair
// against central differences: on a one-block layout, SoftmaxBackward's
// dScore equals d/dx_j Σ_k dprob_k·CausalSoftmax(x, scale)_k on every
// visible entry of the last row.
func TestSoftmaxBackwardMatchesNumeric(t *testing.T) {
	const s, scale = 4, float32(0.8)
	x := []float32{0.3, -1.2, 0.7, 2.0}
	dprob := []float32{0.1, -0.4, 0.9, 0.2}
	l := Pattern{Kind: KindDense}.Build(1)
	// softmax returns the probabilities of the last row, whose s
	// entries are all visible; the other rows stay zero.
	softmax := func(x []float32) *BlockSparse {
		p := NewBlockSparse(l, s)
		copy(p.Data[(s-1)*s:], x)
		CausalSoftmax(p, scale)
		return p
	}
	p := softmax(x)
	d := NewBlockSparse(l, s)
	copy(d.Data[(s-1)*s:], dprob)
	SoftmaxBackward(d, p, scale)
	const eps = 1e-3
	for j := range x {
		xp := append([]float32(nil), x...)
		xm := append([]float32(nil), x...)
		xp[j] += eps
		xm[j] -= eps
		pp, pm := softmax(xp).Data[(s-1)*s:], softmax(xm).Data[(s-1)*s:]
		var fp, fm float64
		for k := range x {
			fp += float64(dprob[k]) * float64(pp[k])
			fm += float64(dprob[k]) * float64(pm[k])
		}
		num := (fp - fm) / (2 * eps)
		if got := float64(d.Data[(s-1)*s+j]); math.Abs(num-got) > 1e-3 {
			t.Fatalf("grad[%d]: numeric %v vs analytic %v", j, num, got)
		}
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
