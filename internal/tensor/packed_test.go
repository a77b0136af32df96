package tensor

import (
	"math"
	"testing"

	"longexposure/internal/half"
)

// TestPackF16ExactRoundTrip pins the acceptance contract: weights already
// representable in fp16 survive f32→f16→f32 bit-identically, so a base whose
// checkpoint was trained in fp16 serves the exact same numbers packed.
func TestPackF16ExactRoundTrip(t *testing.T) {
	w := New(16, 8)
	NewRNG(7).FillNormal(w, 1)
	for i := range w.Data {
		w.Data[i] = half.RoundTrip(w.Data[i]) // snap to fp16 grid
	}
	deq := PackF16(w).Dequant()
	for i := range w.Data {
		if math.Float32bits(deq.Data[i]) != math.Float32bits(w.Data[i]) {
			t.Fatalf("element %d: %x -> %x", i, math.Float32bits(w.Data[i]), math.Float32bits(deq.Data[i]))
		}
	}
}

// fillRand fills a tensor with unit normals.
func fillRand(t *Tensor, seed uint64) {
	NewRNG(seed).FillNormal(t, 1)
}

// TestGemmPackedBitIdentical: the packed kernels must produce bit-for-bit
// the result of the f32 cores run over the dequantized matrix — the packed
// path changes storage, never arithmetic. Shapes straddle the panel edges
// (k > gemmKC, n not a multiple of gemmNC or gemmNR), and row counts
// straddle the row kernels' crossovers.
func TestGemmPackedBitIdentical(t *testing.T) {
	const k, n, kz = 300, 70, 150
	for _, m := range packedRowCounts {
		a := New(m, k)
		w := New(k, n)
		fillRand(a, 1)
		fillRand(w, 2)
		// Exact zeros in a exercise the zero-skip dispatch; column kz is
		// zero in every row, so fp16's infinite row kz must be skipped.
		for i := 0; i < len(a.Data); i += 17 {
			a.Data[i] = 0
		}
		for i := 0; i < m; i++ {
			a.Data[i*k+kz] = 0
		}
		wInf := w.Clone()
		for j := 0; j < n; j++ {
			wInf.Data[kz*n+j] = float32(math.Inf(1 - 2*(j%2)))
		}

		for _, tc := range []struct {
			name string
			p    *PackedWeights
		}{
			{"f16", PackF16(wInf)},
			{"int8", PackInt8(w, ScalePerCol)},
		} {
			want := MatMul(a, tc.p.Dequant())
			got := New(m, n)
			MatMulPackedInto(got, a, tc.p)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s m=%d: element %d: got %g, want %g", tc.name, m, i, got.Data[i], want.Data[i])
				}
				if math.IsInf(float64(got.Data[i]), 0) || math.IsNaN(float64(got.Data[i])) {
					t.Fatalf("%s m=%d: element %d = %g, a zero product was not skipped", tc.name, m, i, got.Data[i])
				}
			}
		}
	}
}

// packedRowCounts straddles the packed row kernels' crossover and the
// drivers' row tile.
var packedRowCounts = []int{1, 2, 4, 5, 8, 9}

// TestGemmTBPacked pins the TB contract: widening B's rows quad-wise over
// the full contraction makes a·Pᵀ bit-identical to the f32 TB core over the
// dequantized matrix for k ≤ 2048 (same stripe width, one accumulator per
// output element, k ascending).
func TestGemmTBPacked(t *testing.T) {
	const k, n = 300, 70
	for _, m := range packedRowCounts {
		a := New(m, k)
		w := New(n, k) // logical B: [n,k], output j indexes rows
		fillRand(a, 3)
		fillRand(w, 4)

		for _, tc := range []struct {
			name string
			p    *PackedWeights
		}{
			{"f16", PackF16(w)},
			{"int8", PackInt8(w, ScalePerRow)},
		} {
			want := New(m, n)
			MatMulTBInto(want, a, tc.p.Dequant())
			got := New(m, n)
			MatMulTBPackedInto(got, a, tc.p)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s m=%d: element %d: got %g, want %g", tc.name, m, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestGemmPackedTolerance is the numeric-tolerance golden test against the
// f32 path proper: quantization noise through a k=256 contraction stays
// within the storage format's error budget (fp16: 2⁻¹¹ per weight; int8:
// scale/2 per weight), both well under the bounds README documents.
func TestGemmPackedTolerance(t *testing.T) {
	const m, k, n = 4, 256, 64
	a := New(m, k)
	w := New(k, n)
	fillRand(a, 5)
	fillRand(w, 6)
	exact := MatMul(a, w)

	check := func(name string, p *PackedWeights, relTol float64) {
		got := New(m, n)
		MatMulPackedInto(got, a, p)
		var ref float64
		for _, v := range exact.Data {
			if av := math.Abs(float64(v)); av > ref {
				ref = av
			}
		}
		for i := range exact.Data {
			if d := math.Abs(float64(got.Data[i] - exact.Data[i])); d > relTol*ref {
				t.Fatalf("%s: element %d off by %g (ref %g, tol %g)", name, i, d, ref, relTol)
			}
		}
	}
	check("f16", PackF16(w), 1e-2)
	check("int8", PackInt8(w, ScalePerCol), 5e-2)
}

// TestPackInt8 pins the quantizer: per-channel absmax scaling, at most half
// a quantization step of error per element, exact zeros for zero channels.
func TestPackInt8(t *testing.T) {
	w := New(6, 5)
	fillRand(w, 8)
	for r := 0; r < 6; r++ {
		w.Data[r*5+3] = 0 // column 3 all zero
	}
	p := PackInt8(w, ScalePerCol)
	if p.Scale[3] != 0 {
		t.Fatalf("zero channel scale = %g, want 0", p.Scale[3])
	}
	deq := p.Dequant()
	for r := 0; r < 6; r++ {
		for c := 0; c < 5; c++ {
			d := math.Abs(float64(deq.Data[r*5+c] - w.Data[r*5+c]))
			if d > float64(p.Scale[c])/2+1e-9 {
				t.Fatalf("(%d,%d): dequant off by %g, scale %g", r, c, d, p.Scale[c])
			}
		}
	}
	if got := p.Bytes(); got != 6*5+4*5 {
		t.Fatalf("int8 Bytes = %d, want %d", got, 6*5+4*5)
	}
	if got := PackF16(w).Bytes(); got != 2*6*5 {
		t.Fatalf("f16 Bytes = %d, want %d", got, 2*6*5)
	}
}

// TestPackedAxisGuard: using an int8 matrix with the wrong scale orientation
// must panic rather than silently dequantize with the wrong scales.
func TestPackedAxisGuard(t *testing.T) {
	w := New(8, 8)
	fillRand(w, 9)
	p := PackInt8(w, ScalePerRow)
	a := New(2, 8)
	c := New(2, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulPackedInto accepted a ScalePerRow matrix")
		}
	}()
	MatMulPackedInto(c, a, p)
}
