package tensor

import (
	"encoding/binary"
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
func TestGemmPackedBitIdentical(t *testing.T) { forEachKernel(t, testGemmPackedBitIdentical) }

func testGemmPackedBitIdentical(t *testing.T) {
	const k, kz = 300, 150
	for _, m := range packedRowCounts {
		for _, tc := range []struct {
			name string
			n    int
			inf  bool // row kz of w infinite: its products must be skipped
			pack func(*Tensor) *PackedWeights
		}{
			{"f16", 70, true, PackF16},
			{"int8", 70, false, func(w *Tensor) *PackedWeights { return PackInt8(w, ScalePerCol) }},
			// 2:4 groups run along n: a multiple of 4 that still ends in a
			// partial 8-lane group.
			{"nm24", 76, true, PackNM24},
		} {
			n := tc.n
			a := New(m, k)
			w := New(k, n)
			fillRand(a, 1)
			fillRand(w, 2)
			// Exact zeros in a exercise the zero-skip dispatch; column kz is
			// zero in every row, so an infinite row kz must be skipped.
			for i := 0; i < len(a.Data); i += 17 {
				a.Data[i] = 0
			}
			for i := 0; i < m; i++ {
				a.Data[i*k+kz] = 0
			}
			if tc.inf {
				for j := 0; j < n; j++ {
					w.Data[kz*n+j] = float32(math.Inf(1 - 2*(j%2)))
				}
			}
			p := tc.pack(w)
			want := MatMul(a, p.Dequant())
			got := New(m, n)
			MatMulPackedInto(got, a, p)
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

// TestGemmTBPacked pins the TB contract: widening B's rows into the
// k-major dot groups makes a·Pᵀ bit-identical to the f32 TB core over the
// dequantized matrix at every k — one accumulator per output element from
// +0, k ascending, on either kernel set. k = 2100 spans several gemmKC
// panels, and n = 70 ends in a partial group. 2:4 groups run along k, so
// both depths are multiples of 4; its single row runs gemmTBRowNM24.
func TestGemmTBPacked(t *testing.T) { forEachKernel(t, testGemmTBPacked) }

func testGemmTBPacked(t *testing.T) {
	const n = 70
	for _, k := range []int{300, 2100} {
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
				{"nm24", PackNM24(w)},
			} {
				want := New(m, n)
				MatMulTBInto(want, a, tc.p.Dequant())
				got := New(m, n)
				MatMulTBPackedInto(got, a, tc.p)
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%s k=%d m=%d: element %d: got %g, want %g", tc.name, k, m, i, got.Data[i], want.Data[i])
					}
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

// TestPackNM24Selection pins the pruning rule: top 2 by |value| per
// aligned group of 4, ties to the lower column, kept entries in ascending
// column order, 2.5 bytes per weight.
func TestPackNM24Selection(t *testing.T) {
	w := New(2, 8)
	copy(w.Data, []float32{
		0.1, -3, 2, 0.5 /**/, 1, 1, -1, 0, // tie between cols 0,1,2: keep 0,1
		0, 0, 0, 0 /**/, -0.5, 0, 0, 4,
	})
	p := PackNM24(w)
	wantVal := []float32{-3, 2, 1, 1, 0, 0, -0.5, 4}
	wantIdx := []uint8{1, 2, 0, 1, 0, 1, 0, 3}
	for i := range wantVal {
		if p.NMVal[i] != wantVal[i] || p.NMIdx[i] != wantIdx[i] {
			t.Fatalf("entry %d: (%g, %d), want (%g, %d)", i, p.NMVal[i], p.NMIdx[i], wantVal[i], wantIdx[i])
		}
	}
	if p.Bytes() != 4*8+8 {
		t.Fatalf("Bytes = %d, want 40", p.Bytes())
	}
}

// TestPackNM24NaN pins the rule for NaN weights: a NaN ranks above every
// finite magnitude (as +Inf does, lowest column among ties), so every
// group keeps two columns and the NaN survives the pack.
func TestPackNM24NaN(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, c := range []struct {
		name string
		grp  []float32
		idx  [2]uint8
	}{
		{"all NaN", []float32{nan, nan, nan, nan}, [2]uint8{0, 1}},
		{"three NaN", []float32{1, nan, nan, nan}, [2]uint8{1, 2}},
		{"one NaN", []float32{3, -4, nan, 1}, [2]uint8{1, 2}},
		{"NaN ties +Inf", []float32{0, inf, 2, nan}, [2]uint8{1, 3}},
	} {
		w := New(1, 4)
		copy(w.Data, c.grp)
		p := PackNM24(w)
		if p.NMIdx[0] != c.idx[0] || p.NMIdx[1] != c.idx[1] {
			t.Fatalf("%s: kept columns %v, want %v", c.name, p.NMIdx, c.idx)
		}
		d := p.Dequant()
		for j, v := range c.grp {
			kept := uint8(j) == c.idx[0] || uint8(j) == c.idx[1]
			if got := d.Data[j]; kept && math.Float32bits(got) != math.Float32bits(v) || !kept && got != 0 {
				t.Fatalf("%s: column %d dequantizes to %v (kept %v)", c.name, j, got, kept)
			}
		}
	}
}

// FuzzPackNM24: on any float32 bit patterns (a whole number of groups of
// four), PackNM24 never panics, keeps exactly two distinct columns per
// group — the two the top-2 rule ranks first, |v| descending with NaN as
// +Inf and ties to the lower column — holding their exact bits, and
// dequantizes every other column to +0.
func FuzzPackNM24(f *testing.F) {
	nan := math.Float32bits(float32(math.NaN()))
	for _, grp := range [][4]uint32{
		{nan, nan, nan, nan},
		{0x3f800000, nan, nan, nan},                      // 1, NaN, NaN, NaN
		{0x7f800000, 0xff800000, nan, 0},                 // +Inf, -Inf, NaN, 0
		{0x80000000, 0, 0x80000000, 0},                   // -0, +0, -0, +0
		{0x3f800000, 0xbf800000, 0x3f800000, 0x00000001}, // 1, -1, 1, smallest subnormal
	} {
		b := make([]byte, 16)
		for i, v := range grp {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		n := len(b) / 16 * 4
		if n == 0 {
			return
		}
		w := New(1, n)
		for i := range w.Data {
			w.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		p := PackNM24(w)
		d := p.Dequant()
		key := func(v float32) float64 {
			if a := math.Abs(float64(v)); !math.IsNaN(a) {
				return a
			}
			return math.Inf(1)
		}
		for g := 0; g < n; g += 4 {
			grp := w.Data[g : g+4]
			lo, hi := p.NMIdx[g/2], p.NMIdx[g/2+1]
			if lo >= hi || hi > 3 {
				t.Fatalf("group %d %v: kept columns %d, %d", g/4, grp, lo, hi)
			}
			for c := range grp {
				beaten := 0 // columns ranked above c
				for o := range grp {
					if key(grp[o]) > key(grp[c]) || key(grp[o]) == key(grp[c]) && o < c {
						beaten++
					}
				}
				kept := uint8(c) == lo || uint8(c) == hi
				if kept != (beaten < 2) {
					t.Fatalf("group %d %v: kept %d, %d; column %d ranks %d", g/4, grp, lo, hi, c, beaten)
				}
				want := uint32(0)
				if kept {
					want = math.Float32bits(grp[c])
				}
				if got := math.Float32bits(d.Data[g+c]); got != want {
					t.Fatalf("group %d %v: column %d dequantizes to %#x, want %#x", g/4, grp, c, got, want)
				}
			}
			if math.Float32bits(p.NMVal[g/2]) != math.Float32bits(grp[lo]) || math.Float32bits(p.NMVal[g/2+1]) != math.Float32bits(grp[hi]) {
				t.Fatalf("group %d %v: kept values %v, %v", g/4, grp, p.NMVal[g/2], p.NMVal[g/2+1])
			}
		}
	})
}

// TestPackNM24ExactForStructured: a matrix that is already 2:4 structured
// survives pack→dequant bit-exactly.
func TestPackNM24ExactForStructured(t *testing.T) {
	w := New(6, 16)
	fillRand(w, 1)
	for i := 0; i < len(w.Data); i += 4 { // zero two of every four
		w.Data[i+1], w.Data[i+3] = 0, 0
	}
	got := PackNM24(w).Dequant()
	for i := range w.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(w.Data[i]) {
			t.Fatalf("element %d: %g -> %g", i, w.Data[i], got.Data[i])
		}
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
