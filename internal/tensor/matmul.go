package tensor

import (
	"fmt"

	"longexposure/internal/parallel"
)

// The slice-level GEMM cores below are the single source of truth for dense
// matrix multiplication. They *accumulate* into the destination (c += a·b),
// which is what gradient accumulation wants; callers needing overwrite
// semantics zero the destination first. All higher-level and sparse kernels
// reuse these cores on sub-ranges, so the dense and sparse paths share
// per-element arithmetic exactly.

// GemmRange computes c[i,:] += a[i,:]·b for rows i in [loM, hiM), with
// a: [m,k] stored with row stride lda ≥ k, b: [k,n] with row stride
// ldb ≥ n, c: [m,n], all row-major. Dense operands pass lda = k and
// ldb = n; a wider stride reads a column window of a larger matrix (the
// sparse MLP's active hidden neurons in a, a span of cached positions of
// decode's transposed keys in b). Every row runs the gemmAxpy kernel over
// b where it lies (gemm_tiled.go), whatever the row count; the result is
// bit-identical to GemmRangeNaive.
func GemmRange(c, a, b []float32, k, n, lda, ldb, loM, hiM int) {
	gemmAxpyRange(c, a, b, k, n, ldb, lda, 1, loM, hiM)
}

// GemmRangeNaive is the seed i-k-j core, retained as the correctness
// reference and the baseline BenchmarkGemmCores measures the tiled core
// against. The i-k-j loop order streams rows of b, the cache-friendly
// order for row-major data.
func GemmRangeNaive(c, a, b []float32, k, n, lda, loM, hiM int) {
	for i := loM; i < hiM; i++ {
		ci := c[i*n : (i+1)*n]
		ai := a[i*lda : i*lda+k]
		for kk := 0; kk < k; kk++ {
			aik := ai[kk]
			if aik == 0 {
				continue
			}
			bk := b[kk*n : (kk+1)*n]
			for j, bv := range bk {
				ci[j] += aik * bv
			}
		}
	}
}

// GemmTBRange computes c[i,j] += dot(a[i,:], b[j,:]) for rows i in [loM,
// hiM), with a: [m,k], b: [n,k] (i.e. c += a·bᵀ) and c: [m,n] stored with
// row stride ldc ≥ n. A dense c passes ldc = n; a wider stride writes a
// column window of a larger matrix. Attention scores use it. With AVX and
// one 8-column group or more, b's rows are packed for the gemmDot kernel
// from gemmTBMinRows rows on, and fewer rows read them in place through
// gemmDotTAVX; without AVX the scalar 4-wide core reads them in place.
// Skinny shapes run the naive core. Results are bit-identical on every
// path. A b shorter than n·k panics.
func GemmTBRange(c, a, b []float32, k, n, ldc, loM, hiM int) {
	if hiM > loM && n*k > 0 {
		b = span(b, n*k)
	}
	switch {
	case useAVX && k > 0 && n >= gemmRowNR && hiM-loM >= gemmTBMinRows:
		gemmTBRangeDot(c, a, b, nil, k, n, ldc, loM, hiM)
	case useAVX && k > 0 && n >= gemmRowNR:
		gemmTBRangeInPlace(c, a, b, k, n, ldc, loM, hiM)
	case !useAVX && gemmTiledWorthIt(k, n):
		gemmTBRangeTiled(c, a, b, k, n, ldc, loM, hiM)
	default:
		GemmTBRangeNaive(c, a, b, k, n, ldc, loM, hiM)
	}
}

// GemmTBRangeNaive is the seed dot-product core, retained as the
// correctness reference and BenchmarkGemmCores baseline.
func GemmTBRangeNaive(c, a, b []float32, k, n, ldc, loM, hiM int) {
	for i := loM; i < hiM; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*ldc : i*ldc+n]
		for j := 0; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			var s float32
			for kk, av := range ai {
				s += av * bj[kk]
			}
			ci[j] += s
		}
	}
}

// GemmTARange computes c[i,:] += Σ_k a[k,i]·b[k,:] for rows i in [loM, hiM),
// with a: [kDim,m], b: [kDim,n] (i.e. c += aᵀ·b). Weight gradients
// (xᵀ·dy) use it. It is GemmRange's gemmAxpy kernel reading the column
// a[:,i] in place at stride m; bit-identical to GemmTARangeNaive.
func GemmTARange(c, a, b []float32, kDim, m, n, loM, hiM int) {
	gemmAxpyRange(c, a, b, kDim, n, n, 1, m, loM, hiM)
}

// GemmTARangeNaive is the seed aᵀ·b core, retained as the correctness
// reference and BenchmarkGemmCores baseline.
func GemmTARangeNaive(c, a, b []float32, kDim, m, n, loM, hiM int) {
	for i := loM; i < hiM; i++ {
		ci := c[i*n : (i+1)*n]
		for kk := 0; kk < kDim; kk++ {
			aki := a[kk*m+i]
			if aki == 0 {
				continue
			}
			bk := b[kk*n : (kk+1)*n]
			for j, bv := range bk {
				ci[j] += aki * bv
			}
		}
	}
}

// RowTile is the row granularity handed to parallel.ForBlockedArg by the
// MatMul drivers and the sparse neuron-block kernels: no worker receives
// fewer rows than this (except the tail), so GemmTBRange's per-call pack
// of b stays amortized and a few-row step runs on the calling goroutine.
const RowTile = 8

// gemmCall carries one driver invocation's operands so the parallel fan-out
// uses static chunk functions — no closure, no per-call heap allocation on
// the single-worker fast path (see parallel.ForChunkedArg). The packed
// chunks read b from p.
type gemmCall struct {
	c, a, b []float32
	k, n, m int
	p       *PackedWeights
}

func gemmRangeChunk(g gemmCall, lo, hi int)   { GemmRange(g.c, g.a, g.b, g.k, g.n, g.k, g.n, lo, hi) }
func gemmTBRangeChunk(g gemmCall, lo, hi int) { GemmTBRange(g.c, g.a, g.b, g.k, g.n, g.n, lo, hi) }
func gemmTARangeChunk(g gemmCall, lo, hi int) { GemmTARange(g.c, g.a, g.b, g.k, g.m, g.n, lo, hi) }
func gemmPackedChunk(g gemmCall, lo, hi int)  { GemmRangePacked(g.c, g.a, g.p, g.k, g.n, g.k, lo, hi) }
func gemmTBPackedChunk(g gemmCall, lo, hi int) {
	GemmTBRangePacked(g.c, g.a, g.p, g.k, g.n, g.n, lo, hi)
}

func check2D(t *Tensor, name string) (rows, cols int) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s must be rank 2, got shape %v", name, t.Shape()))
	}
	return t.Dim(0), t.Dim(1)
}

// MatMul returns a·b for a: [m,k], b: [k,n], computed in parallel over row
// chunks.
func MatMul(a, b *Tensor) *Tensor {
	m, k := check2D(a, "a")
	k2, n := check2D(b, "b")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	c := New(m, n)
	parallel.ForBlockedArg(m, RowTile, gemmCall{c.Data, a.Data, b.Data, k, n, m, nil}, gemmRangeChunk)
	return c
}

// MatMulInto accumulates a·b into c (c += a·b), in parallel.
func MatMulInto(c, a, b *Tensor) {
	m, k := check2D(a, "a")
	k2, n := check2D(b, "b")
	cm, cn := check2D(c, "c")
	if k != k2 || cm != m || cn != n {
		panic(fmt.Sprintf("tensor: MatMulInto shapes a%v b%v c%v", a.Shape(), b.Shape(), c.Shape()))
	}
	parallel.ForBlockedArg(m, RowTile, gemmCall{c.Data, a.Data, b.Data, k, n, m, nil}, gemmRangeChunk)
}

// MatMulTB returns a·bᵀ for a: [m,k], b: [n,k], in parallel.
func MatMulTB(a, b *Tensor) *Tensor {
	m, k := check2D(a, "a")
	n, k2 := check2D(b, "b")
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTB inner dims %d vs %d", k, k2))
	}
	c := New(m, n)
	parallel.ForBlockedArg(m, RowTile, gemmCall{c.Data, a.Data, b.Data, k, n, m, nil}, gemmTBRangeChunk)
	return c
}

// MatMulTBInto accumulates a·bᵀ into c, in parallel.
func MatMulTBInto(c, a, b *Tensor) {
	m, k := check2D(a, "a")
	n, k2 := check2D(b, "b")
	cm, cn := check2D(c, "c")
	if k != k2 || cm != m || cn != n {
		panic(fmt.Sprintf("tensor: MatMulTBInto shapes a%v b%v c%v", a.Shape(), b.Shape(), c.Shape()))
	}
	parallel.ForBlockedArg(m, RowTile, gemmCall{c.Data, a.Data, b.Data, k, n, m, nil}, gemmTBRangeChunk)
}

// MatMulTA returns aᵀ·b for a: [kDim,m], b: [kDim,n], in parallel.
func MatMulTA(a, b *Tensor) *Tensor {
	kDim, m := check2D(a, "a")
	kDim2, n := check2D(b, "b")
	if kDim != kDim2 {
		panic(fmt.Sprintf("tensor: MatMulTA leading dims %d vs %d", kDim, kDim2))
	}
	c := New(m, n)
	parallel.ForBlockedArg(m, RowTile, gemmCall{c.Data, a.Data, b.Data, kDim, n, m, nil}, gemmTARangeChunk)
	return c
}

// MatMulTAInto accumulates aᵀ·b into c, in parallel.
func MatMulTAInto(c, a, b *Tensor) {
	kDim, m := check2D(a, "a")
	kDim2, n := check2D(b, "b")
	cm, cn := check2D(c, "c")
	if kDim != kDim2 || cm != m || cn != n {
		panic(fmt.Sprintf("tensor: MatMulTAInto shapes a%v b%v c%v", a.Shape(), b.Shape(), c.Shape()))
	}
	parallel.ForBlockedArg(m, RowTile, gemmCall{c.Data, a.Data, b.Data, kDim, n, m, nil}, gemmTARangeChunk)
}

// MatMulIn returns a·b with the result taken from ws — the workspace entry
// point of the forward/backward drivers.
func MatMulIn(ws *Arena, a, b *Tensor) *Tensor {
	c := ws.Get(a.Dim(0), b.Dim(1))
	MatMulInto(c, a, b)
	return c
}

// MatMulTBIn returns a·bᵀ with the result taken from ws.
func MatMulTBIn(ws *Arena, a, b *Tensor) *Tensor {
	c := ws.Get(a.Dim(0), b.Dim(0))
	MatMulTBInto(c, a, b)
	return c
}

// MatMulTAIn returns aᵀ·b with the result taken from ws.
func MatMulTAIn(ws *Arena, a, b *Tensor) *Tensor {
	c := ws.Get(a.Dim(1), b.Dim(1))
	MatMulTAInto(c, a, b)
	return c
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	m, n := check2D(a, "a")
	t := New(n, m)
	parallel.ForChunkedArg(m, transposeArgs{t.Data, a.Data, m, n}, transposeChunk)
	return t
}

type transposeArgs struct {
	t, a []float32
	m, n int
}

func transposeChunk(g transposeArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		for j, v := range g.a[i*g.n : (i+1)*g.n] {
			g.t[j*g.m+i] = v
		}
	}
}
