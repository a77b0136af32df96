package sparse

import (
	"testing"

	"longexposure/internal/tensor"
)

func randVec(r *tensor.RNG, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(r.Norm())
	}
	return x
}

func TestColMajorRoundTrip(t *testing.T) {
	r := tensor.NewRNG(1)
	in, out := 5, 7
	rm := randVec(r, in*out)
	w := NewColMajor(in, out)
	w.SetFromRowMajor(rm)
	for row := 0; row < in; row++ {
		for c := 0; c < out; c++ {
			if w.Col(c)[row] != rm[row*out+c] {
				t.Fatalf("(%d,%d) mismatched", row, c)
			}
		}
	}
}

func TestFC1SparseAllBlocksEqualsDense(t *testing.T) {
	r := tensor.NewRNG(2)
	tokens, d, H, blk := 6, 8, 16, 4
	x := randVec(r, tokens*d)
	wrm := randVec(r, d*H)
	w := NewColMajor(d, H)
	w.SetFromRowMajor(wrm)

	got := make([]float32, tokens*H)
	FC1Sparse(got, x, tokens, w, AllBlocks(H, blk), blk)

	want := make([]float32, tokens*H)
	tensor.GemmRange(want, x, wrm, d, H, d, H, 0, tokens)

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FC1[%d]: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestFC1SparseSubsetTouchesOnlyActive(t *testing.T) {
	r := tensor.NewRNG(3)
	tokens, d, H, blk := 4, 6, 16, 4
	x := randVec(r, tokens*d)
	w := NewColMajor(d, H)
	w.SetFromRowMajor(randVec(r, d*H))

	blocks := []int{1, 3}
	got := make([]float32, tokens*H)
	FC1Sparse(got, x, tokens, w, blocks, blk)

	active := map[int]bool{}
	for _, nb := range blocks {
		for c := nb * blk; c < (nb+1)*blk; c++ {
			active[c] = true
		}
	}
	for i := 0; i < tokens; i++ {
		for c := 0; c < H; c++ {
			v := got[i*H+c]
			if !active[c] && v != 0 {
				t.Fatalf("inactive column %d written: %v", c, v)
			}
			if active[c] {
				var want float32
				col := w.Col(c)
				for kk := 0; kk < d; kk++ {
					want += x[i*d+kk] * col[kk]
				}
				if v != want {
					t.Fatalf("active column %d wrong", c)
				}
			}
		}
	}
}

func TestFC2SparseAllBlocksEqualsDense(t *testing.T) {
	r := tensor.NewRNG(4)
	tokens, H, d, blk := 5, 16, 7, 4
	hidden := randVec(r, tokens*H)
	wrm := randVec(r, H*d)
	w := NewRowMajor(H, d)
	copy(w.Data, wrm) // row-major is the native layout for FC2

	got := make([]float32, tokens*d)
	FC2Sparse(got, hidden, tokens, w, AllBlocks(H, blk), blk)

	want := make([]float32, tokens*d)
	tensor.GemmRange(want, hidden, wrm, H, d, H, d, 0, tokens)

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FC2[%d]: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestFC2SparseSubsetEqualsZeroedHidden(t *testing.T) {
	r := tensor.NewRNG(5)
	tokens, H, d, blk := 4, 16, 5, 4
	hidden := randVec(r, tokens*H)
	w := NewRowMajor(H, d)
	copy(w.Data, randVec(r, H*d))

	blocks := []int{0, 2}
	got := make([]float32, tokens*d)
	FC2Sparse(got, hidden, tokens, w, blocks, blk)

	// Reference: zero out hidden outside active blocks, dense matmul.
	hz := append([]float32(nil), hidden...)
	for i := 0; i < tokens; i++ {
		for h := 0; h < H; h++ {
			if h/blk != 0 && h/blk != 2 {
				hz[i*H+h] = 0
			}
		}
	}
	want := make([]float32, tokens*d)
	tensor.GemmRange(want, hz, w.Data, H, d, H, d, 0, tokens)

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FC2 subset[%d]: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestFC1GradInputMatchesDense(t *testing.T) {
	r := tensor.NewRNG(6)
	tokens, d, H, blk := 4, 6, 12, 4
	dHidden := randVec(r, tokens*H)
	wrm := randVec(r, d*H)
	w := NewColMajor(d, H)
	w.SetFromRowMajor(wrm)

	got := make([]float32, tokens*d)
	FC1GradInput(got, dHidden, tokens, w, AllBlocks(H, blk), blk)

	// dx = dHidden · W1ᵀ; with row-major W1 [d,H]: dx = dHidden · (W1ᵀ) =
	// GemmTB(dHidden [tokens,H], W1 [d,H]).
	want := make([]float32, tokens*d)
	tensor.GemmTBRange(want, dHidden, wrm, H, d, d, 0, tokens)

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FC1GradInput[%d]: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestFC2GradHiddenMatchesDense(t *testing.T) {
	r := tensor.NewRNG(7)
	tokens, H, d, blk := 4, 12, 6, 4
	dOut := randVec(r, tokens*d)
	w := NewRowMajor(H, d)
	copy(w.Data, randVec(r, H*d))

	got := make([]float32, tokens*H)
	FC2GradHidden(got, dOut, tokens, w, AllBlocks(H, blk), blk)

	// dHidden = dOut · W2ᵀ = GemmTB(dOut [tokens,d], W2 [H,d]).
	want := make([]float32, tokens*H)
	tensor.GemmTBRange(want, dOut, w.Data, d, H, H, 0, tokens)

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FC2GradHidden[%d]: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestFC1GradWeightMatchesDense(t *testing.T) {
	r := tensor.NewRNG(8)
	tokens, d, H, blk := 5, 6, 12, 4
	x := randVec(r, tokens*d)
	dHidden := randVec(r, tokens*H)

	dW := NewColMajor(d, H)
	FC1GradWeight(dW, x, dHidden, tokens, AllBlocks(H, blk), blk)

	// dW1 = xᵀ · dHidden, row-major [d, H].
	want := make([]float32, d*H)
	tensor.GemmTARange(want, x, dHidden, tokens, d, H, 0, d)

	for row := 0; row < d; row++ {
		for c := 0; c < H; c++ {
			got := dW.Col(c)[row]
			if got != want[row*H+c] {
				t.Fatalf("dW1(%d,%d): %v vs %v", row, c, got, want[row*H+c])
			}
		}
	}
}

func TestFC2GradWeightMatchesDense(t *testing.T) {
	r := tensor.NewRNG(9)
	tokens, H, d, blk := 5, 12, 6, 4
	hidden := randVec(r, tokens*H)
	dOut := randVec(r, tokens*d)

	dW := NewRowMajor(H, d)
	FC2GradWeight(dW, hidden, dOut, tokens, AllBlocks(H, blk), blk)

	// dW2 = hiddenᵀ · dOut, row-major [H, d].
	want := make([]float32, H*d)
	tensor.GemmTARange(want, hidden, dOut, tokens, H, d, 0, H)

	for i := range want {
		if dW.Data[i] != want[i] {
			t.Fatalf("dW2[%d]: %v vs %v", i, dW.Data[i], want[i])
		}
	}
}

// TestNeuronKernelsMatchDenseCores pins all six kernels bit for bit
// against one dense core call over the full hidden width, on block lists
// the single-run tests above miss: a partial trailing block (H % blk != 0),
// adjacent runs mixed with isolated blocks, and hidden rows holding exact
// zeros beside zero-free rows, so both micro-kernel dispatch branches run.
// The reference zeroes the inactive hidden columns (their products are then
// skipped) and, for the hidden-width outputs, restores the inactive columns
// the kernels must leave untouched.
func TestNeuronKernelsMatchDenseCores(t *testing.T) {
	for _, tc := range []struct {
		name              string
		tokens, d, H, blk int
		blocks            []int
	}{
		{"all-blocks", 6, 8, 16, 4, AllBlocks(16, 4)},
		{"partial-trailing", 5, 12, 30, 8, []int{0, 2, 3}},
		{"mixed-runs", 7, 16, 64, 4, []int{0, 1, 2, 5, 7, 8, 12, 15}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tensor.NewRNG(10)
			tokens, d, H := tc.tokens, tc.d, tc.H
			active := make([]bool, H)
			for _, nb := range tc.blocks {
				for c := nb * tc.blk; c < min((nb+1)*tc.blk, H); c++ {
					active[c] = true
				}
			}
			x, dOut := randVec(r, tokens*d), randVec(r, tokens*d)
			hidden := randVec(r, tokens*H)
			for i := 0; i < tokens; i += 2 {
				for c := i % 3; c < H; c += 3 {
					hidden[i*H+c] = 0 // even rows: exact zeros (skip branch)
				}
			}
			hz := append([]float32(nil), hidden...)
			for i := range hz {
				if !active[i%H] {
					hz[i] = 0
				}
			}
			w1, w2 := NewColMajor(d, H), NewRowMajor(H, d)
			copy(w1.Data, randVec(r, H*d))
			copy(w2.Data, randVec(r, H*d))

			// same reports the first element where got and want differ.
			same := func(kernel string, got, want []float32) {
				t.Helper()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s[%d]: %v vs %v", kernel, i, got[i], want[i])
					}
				}
			}
			// hiddenOut runs a hidden-width kernel over a random start and
			// the dense TB reference with inactive columns restored.
			hiddenOut := func(kernel string, run func(out []float32), a, w []float32) {
				t.Helper()
				start := randVec(r, tokens*H)
				got := append([]float32(nil), start...)
				run(got)
				want := append([]float32(nil), start...)
				tensor.GemmTBRange(want, a, w, d, H, H, 0, tokens)
				for i := range want {
					if !active[i%H] {
						want[i] = start[i]
					}
				}
				same(kernel, got, want)
			}
			hiddenOut("FC1Sparse", func(out []float32) { FC1Sparse(out, x, tokens, w1, tc.blocks, tc.blk) }, x, w1.Data)
			hiddenOut("FC2GradHidden", func(out []float32) { FC2GradHidden(out, dOut, tokens, w2, tc.blocks, tc.blk) }, dOut, w2.Data)

			denseOut := func(kernel string, run func(out []float32), w []float32) {
				t.Helper()
				start := randVec(r, tokens*d)
				got := append([]float32(nil), start...)
				run(got)
				want := append([]float32(nil), start...)
				tensor.GemmRange(want, hz, w, H, d, H, d, 0, tokens)
				same(kernel, got, want)
			}
			denseOut("FC2Sparse", func(out []float32) { FC2Sparse(out, hidden, tokens, w2, tc.blocks, tc.blk) }, w2.Data)
			denseOut("FC1GradInput", func(out []float32) { FC1GradInput(out, hidden, tokens, w1, tc.blocks, tc.blk) }, w1.Data)

			weightOut := func(kernel string, run func(dW []float32), b []float32) {
				t.Helper()
				start := randVec(r, H*d)
				got := append([]float32(nil), start...)
				run(got)
				want := append([]float32(nil), start...)
				tensor.GemmTARange(want, hz, b, tokens, H, d, 0, H)
				same(kernel, got, want)
			}
			weightOut("FC1GradWeight", func(dW []float32) {
				FC1GradWeight(&ColMajor{In: d, Out: H, Data: dW}, x, hidden, tokens, tc.blocks, tc.blk)
			}, x)
			weightOut("FC2GradWeight", func(dW []float32) {
				FC2GradWeight(&RowMajor{In: H, Out: d, Data: dW}, hidden, dOut, tokens, tc.blocks, tc.blk)
			}, dOut)
		})
	}
}

func TestAllBlocksCeil(t *testing.T) {
	if got := AllBlocks(10, 4); len(got) != 3 {
		t.Fatalf("AllBlocks(10,4) = %v", got)
	}
}
