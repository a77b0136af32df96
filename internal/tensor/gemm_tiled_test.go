package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The tiled cores promise bit-identical results to the naive seed cores —
// every float32 addition happens in the same order. These tests pin that
// promise across shapes that exercise full tiles, partial panels, and
// remainder columns, with exact (== on bits) comparison.

func gemmShapes() [][3]int {
	return [][3]int{
		{1, 8, 4}, {3, 8, 5}, {8, 8, 8}, {7, 9, 11},
		{16, 130, 67}, {33, 128, 64}, {40, 129, 65}, {64, 256, 256},
		{5, 300, 3}, {6, 4, 300}, // skinny: naive fallback paths
	}
}

func fillWithZeros(r *RNG, t *Tensor) {
	r.FillNormal(t, 1)
	for i := 0; i < len(t.Data); i += 7 {
		t.Data[i] = 0 // exercise the zero-skip branches
	}
}

// gemmPads are the extra columns of row stride the strided cases add: 0 is
// the dense layout, 3 a column window of a wider matrix (the sparse MLP
// reads and writes hidden[:, run] this way).
var gemmPads = []int{0, 3}

// padCols sets the stride padding — columns [w, ld) of every row — of t.
func padCols(t *Tensor, w, ld int, v float32) {
	for i := 0; i+ld <= len(t.Data); i += ld {
		for j := w; j < ld; j++ {
			t.Data[i+j] = v
		}
	}
}

// gemmRowCounts straddles gemmTBMinRows and gemmRowNR: decode-sized calls
// of one to a few rows and the multi-row calls of training.
var gemmRowCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}

// gemmRowShapes add to gemmShapes b split into several gemmKC panels with
// full column tiles, and a b of 2 MiB and more (344×1529), many 32-column
// stripes of panels of mixed depth.
var gemmRowShapes = [][3]int{{2, 2*gemmKC + 9, 24}, {3, gemmKC + 88, 1529}}

// forEachKernel runs f once per GEMM kernel this machine can run: the
// portable Go kernels, and the AVX assembly where the CPU has it.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(old bool) { useAVX = old }(useAVX)
	for _, avx := range []bool{false, true} {
		if avx && !cpuHasAVX() {
			continue
		}
		useAVX = avx
		name := "go"
		if avx {
			name = "avx"
		}
		t.Run(name, f)
	}
}

// fillZeroRows fills a [m, lda] for the GemmRange tests: even rows carry
// exact zeros — every seventh element and all of column kz — and odd rows
// none, so the tiled core runs both its zero-skipping and its branch-free
// kernel.
func fillZeroRows(r *RNG, a *Tensor, lda, kz int) {
	r.FillNormal(a, 1)
	for i := 0; i*lda < len(a.Data); i += 2 {
		row := a.Data[i*lda : (i+1)*lda]
		for kk := i % 7; kk < len(row); kk += 7 {
			row[kk] = 0
		}
		row[kz] = 0
	}
}

func TestGemmTiledBitIdentical(t *testing.T) { forEachKernel(t, testGemmTiledBitIdentical) }

func testGemmTiledBitIdentical(t *testing.T) {
	r := NewRNG(11)
	inf := float32(math.Inf(1))
	for _, pad := range gemmPads {
		for _, d := range append(gemmShapes(), gemmRowShapes...) {
			for _, m := range append([]int{d[0]}, gemmRowCounts...) {
				k, n := d[1], d[2]
				lda := k + pad
				a, b := New(m, lda), New(k, n)
				kz := k / 2
				fillZeroRows(r, a, lda, kz)
				fillWithZeros(r, b)
				// b's row kz is infinite: in the even rows, whose column kz
				// is zero, a product not skipped would turn c into NaN.
				for j := range n {
					b.Data[kz*n+j] = inf * float32(1-2*(j%2))
				}
				// A read of a's padding would turn the row into NaN.
				padCols(a, k, lda, float32(math.NaN()))
				got, want := New(m, n), New(m, n)
				r.FillNormal(got, 1)
				want.CopyFrom(got)
				GemmRange(got.Data, a.Data, b.Data, k, n, lda, 0, m)
				GemmRangeNaive(want.Data, a.Data, b.Data, k, n, lda, 0, m)
				for i := range got.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("GemmRange m,k,n=%d,%d,%d lda=%d: bit mismatch at %d: %v vs %v", m, k, n, lda, i, got.Data[i], want.Data[i])
					}
					if v := float64(got.Data[i]); (i/n)%2 == 0 && (math.IsInf(v, 0) || math.IsNaN(v)) {
						t.Fatalf("GemmRange m,k,n=%d,%d,%d lda=%d: element %d = %v, a zero product was not skipped", m, k, n, lda, i, got.Data[i])
					}
				}
			}
		}
	}
}

// TestGemmRowCountIndependent pins the property decode bit-identity rests
// on: a row's result does not depend on how many rows share the call, so
// each row computed alone equals the same row of one call over all rows.
func TestGemmRowCountIndependent(t *testing.T) { forEachKernel(t, testGemmRowCountIndependent) }

func testGemmRowCountIndependent(t *testing.T) {
	r := NewRNG(15)
	for _, d := range [][3]int{{9, 64, 64}, {16, 256, 64}, {33, 129, 67}, {9, 2*gemmKC + 9, 24}} {
		m, k, n := d[0], d[1], d[2]
		a, b := New(m, k), New(k, n)
		fillZeroRows(r, a, k, 0)
		r.FillNormal(b, 1)
		i8 := PackInt8(b, ScalePerCol)
		f16 := PackF16(b)
		cores := []struct {
			name string
			run  func(c []float32, lo, hi int)
		}{
			{"f32", func(c []float32, lo, hi int) { GemmRange(c, a.Data, b.Data, k, n, k, lo, hi) }},
			{"f16", func(c []float32, lo, hi int) { GemmRangePacked(c, a.Data, f16, k, n, lo, hi) }},
			{"int8", func(c []float32, lo, hi int) { GemmRangePacked(c, a.Data, i8, k, n, lo, hi) }},
		}
		for _, core := range cores {
			all, alone := New(m, n), New(m, n)
			core.run(all.Data, 0, m)
			for i := 0; i < m; i++ {
				core.run(alone.Data, i, i+1)
			}
			for i := range all.Data {
				if all.Data[i] != alone.Data[i] {
					t.Fatalf("%s m,k,n=%v: element %d = %v in one call, %v row by row", core.name, d, i, all.Data[i], alone.Data[i])
				}
			}
		}
	}
}

// gemmTBShapes add what GemmTBRange's packed path alone sees: more rows
// than share one packed panel (gemmTBRows), k over several gemmKC panels,
// and a wide group, a narrow group and a scalar tail column.
var gemmTBShapes = [][3]int{{gemmTBRows + 6, 2*gemmKC + 9, 41}}

func TestGemmTBTiledBitIdentical(t *testing.T) { forEachKernel(t, testGemmTBTiledBitIdentical) }

func testGemmTBTiledBitIdentical(t *testing.T) {
	const sentinel = -12345
	r := NewRNG(12)
	for _, pad := range gemmPads {
		for _, d := range append(gemmShapes(), gemmTBShapes...) {
			m, k, n := d[0], d[1], d[2]
			ldc := n + pad
			a, b := New(m, k), New(n, k)
			fillWithZeros(r, a)
			fillWithZeros(r, b)
			got, want := New(m, ldc), New(m, ldc)
			r.FillNormal(got, 1)
			padCols(got, n, ldc, sentinel)
			want.CopyFrom(got)
			GemmTBRange(got.Data, a.Data, b.Data, k, n, ldc, 0, m)
			GemmTBRangeNaive(want.Data, a.Data, b.Data, k, n, ldc, 0, m)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("GemmTBRange m,k,n=%v ldc=%d: bit mismatch at %d: %v vs %v", d, ldc, i, got.Data[i], want.Data[i])
				}
				if i%ldc >= n && got.Data[i] != sentinel {
					t.Fatalf("GemmTBRange m,k,n=%v ldc=%d: padding at %d overwritten: %v", d, ldc, i, got.Data[i])
				}
			}
		}
	}
}

func TestGemmTATiledBitIdentical(t *testing.T) { forEachKernel(t, testGemmTATiledBitIdentical) }

func testGemmTATiledBitIdentical(t *testing.T) {
	r := NewRNG(13)
	for _, d := range gemmShapes() {
		m, k, n := d[0], d[1], d[2]
		a, b := New(k, m), New(k, n)
		fillWithZeros(r, a)
		fillWithZeros(r, b)
		got, want := New(m, n), New(m, n)
		r.FillNormal(got, 1)
		want.CopyFrom(got)
		GemmTARange(got.Data, a.Data, b.Data, k, m, n, 0, m)
		GemmTARangeNaive(want.Data, a.Data, b.Data, k, m, n, 0, m)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("GemmTARange m,k,n=%v: bit mismatch at %d: %v vs %v", d, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestGemmTiledSubrange checks the cores honor [loM, hiM) exactly: rows
// outside the range are untouched.
func TestGemmTiledSubrange(t *testing.T) { forEachKernel(t, testGemmTiledSubrange) }

func testGemmTiledSubrange(t *testing.T) {
	r := NewRNG(14)
	m, k, n := 20, 64, 48
	a, b := New(m, k), New(k, n)
	r.FillNormal(a, 1)
	r.FillNormal(b, 1)
	c := New(m, n)
	before := New(m, n)
	for _, rows := range gemmRowCounts {
		r.FillNormal(c, 1)
		before.CopyFrom(c)
		lo, hi := 5, 5+rows
		GemmRange(c.Data, a.Data, b.Data, k, n, k, lo, hi)
		for i := 0; i < m; i++ {
			changed := false
			for j := 0; j < n; j++ {
				if c.Data[i*n+j] != before.Data[i*n+j] {
					changed = true
					break
				}
			}
			if inRange := i >= lo && i < hi; changed != inRange {
				t.Fatalf("rows [%d,%d): row %d: changed=%v, in range=%v", lo, hi, i, changed, inRange)
			}
		}
	}
}

// panics reports whether f panicked; a call that returns reports false.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestGemmShortOperandPanics: the assembly kernels check no bounds, so
// every core must panic in Go, before any kernel runs past the end, when b
// is one element short of the extent the call needs — also when b is a
// window of a larger buffer, its capacity running past its length, which
// a reslice alone would not catch. Shapes include n a multiple of 8, where
// the kernels, not a scalar tail, read b's last element.
func TestGemmShortOperandPanics(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, d := range [][3]int{{1, 16, 32}, {8, 64, 64}, {9, 2*gemmKC + 9, 40}, {5, 30, 13}} {
			m, k, n := d[0], d[1], d[2]
			a, c := New(m, k), New(m, n)
			NewRNG(16).FillNormal(a, 1)
			for _, spare := range []int{0, 64} {
				short := make([]float32, k*n-1, k*n-1+spare)
				cores := map[string]func(){
					"GemmRange":   func() { GemmRange(c.Data, a.Data, short, k, n, k, 0, m) },
					"GemmTBRange": func() { GemmTBRange(c.Data, a.Data, short, k, n, n, 0, m) },
					"GemmTARange": func() { GemmTARange(c.Data, a.Data, short, k, m, n, 0, m) },
				}
				for name, run := range cores {
					if !panics(run) {
						t.Errorf("%s m,k,n=%v with b one element short (spare capacity %d) returned", name, d, spare)
					}
				}
			}
		}
	})
}

// gemmCoreRows is each naive and tiled GEMM core, in all three layouts,
// at n×n×n, serial: these time the cores, not the worker pool.
func gemmCoreRows(n int) []kernelRow {
	r := NewRNG(21)
	x, y, c := New(n, n), New(n, n), New(n, n)
	r.FillNormal(x, 1)
	r.FillNormal(y, 1)
	flops, bytes := 2*int64(n)*int64(n)*int64(n), 4*3*int64(n)*int64(n)
	row := func(name string, core func(c, a, b []float32, d0, d1, d2, lo, hi int)) kernelRow {
		return kernelRow{fmt.Sprintf("%s/%d", name, n), flops, bytes, func() {
			core(c.Data, x.Data, y.Data, n, n, n, 0, n)
		}}
	}
	return []kernelRow{
		row("naive", GemmRangeNaive),
		row("tiled", GemmRange),
		row("tb-naive", GemmTBRangeNaive),
		row("tb-tiled", GemmTBRange),
		row("ta-naive", GemmTARangeNaive),
		row("ta-tiled", GemmTARange),
	}
}

func BenchmarkGemmCores(b *testing.B) {
	for _, n := range []int{128, 256} {
		benchRows(b, gemmCoreRows(n))
	}
}
