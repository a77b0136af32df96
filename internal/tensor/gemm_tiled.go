package tensor

// Register-blocked, panel-tiled GEMM cores. These are the hot paths behind
// GemmRange/GemmTBRange/GemmTARange; the straight i-k-j seed cores live in
// matmul.go as GemmRangeNaive et al. and remain the correctness references.
//
// The structure is a scaled-down BLIS: the inner dimension is cut into
// panels of gemmKC rows and the output columns into stripes of gemmNC, and
// the B stripe is packed *transposed* into column streams so one panel
// (gemmKC×gemmNC float32 = 32 KiB) sits in L1d and is swept by every output
// row of the range. The micro-kernel is a 4×-unrolled j-loop: four C values
// held in registers across the whole k-panel, four contiguous packed
// streams, one a-element load feeding four multiply-adds. That removes both
// the per-k C load/store traffic of the naive core and all inner-loop
// bounds checks (each stream has the same length as the a slice, the
// pattern Go's prove pass eliminates). Rows are scanned for exact zeros to
// choose between a branch-free kernel and one that keeps the naive core's
// zero-product skip (see gemmMicroRowDispatch).
//
// The pack is a full copy of B, paid once per call whatever the row count.
// A decode-sized call (one row per sequence) sweeps each panel only a few
// times, so the copy costs as much as the arithmetic it feeds. For such
// calls (gemmRowsWorthIt) GemmRange skips it: gemmRangeRows reads B's rows
// where they lie, panel by panel of gemmKC rows, eight C values held in
// registers per row, one a-element load feeding eight multiply-adds from a
// contiguous B-row segment.
//
// Numerical contract: for every output element the sequence of float32
// additions is exactly the sequence the naive core performs (k ascending,
// zero products skipped, C read-modify-written between panels — loads and
// stores are exact). The tiled and row cores are therefore bit-identical
// to the naive cores, not merely close, and a row's result does not depend
// on how many rows share the call; TestGemmTiledBitIdentical and
// TestGemmRowCountIndependent pin this.

const (
	gemmNR = 4   // register tile width: C columns held in registers
	gemmKC = 256 // B-panel depth (rows of B packed per stripe)
	gemmNC = 32  // B-panel width; gemmKC*gemmNC*4B = 32 KiB ≈ L1d

	gemmRowNR     = 8       // row-kernel tile width: C columns held in registers
	gemmRowsMaxM  = 4       // most rows GemmRange runs on the row kernel
	gemmRowsMaxKN = 1 << 19 // largest b (k·n elements, 2 MiB) read in place past two rows
)

// gemmRowsWorthIt reports whether m rows over a [k,n] b run on the row
// kernel. The row kernel re-reads b once per row where the tiled core packs
// it once per call and sweeps the copy from L1, so the row count that pays
// falls as b grows. Single thread on an Intel Xeon VM (48 KiB L1d, 2 MiB
// L2), row kernel against tiled core:
//   - one or two rows win at every size measured: 1×256×64 8 vs 34 µs,
//     1×3072×768 1.7 vs 3.9 ms, 2×768×3072 3.8 vs 4.1 ms;
//   - four rows win while b is small (4×256×64 28 vs 38 µs, 4×512×512
//     0.48 vs 0.55 ms), tie at 4×768×768 (2.2 vs 2.1 ms) and lose past
//     gemmRowsMaxKN (4×3072×768 6.2 vs 5.7 ms, 4×768×3072 ≈10 vs 6.2 ms);
//   - eight rows tie at 8×64×64 (13 vs 14 µs) and lose from 8×512×256 on
//     (0.47 vs 0.44 ms; 8×3072×768 12 vs 9 ms).
func gemmRowsWorthIt(m, k, n int) bool {
	return m <= 2 || m <= gemmRowsMaxM && k*n <= gemmRowsMaxKN
}

// gemmTiledWorthIt reports whether the panel machinery pays for itself.
// Skinny products (LoRA ranks, tiny blocks) stay on the naive cores.
func gemmTiledWorthIt(k, n int) bool { return k >= 8 && n >= gemmNR }

// gemmRangeTiled computes c[i,:] += a[i,:]·b for rows i in [loM, hiM),
// a: [m,k] with row stride lda, b: [k,n], c: [m,n] row-major.
// Bit-identical to GemmRangeNaive.
func gemmRangeTiled(c, a, b []float32, k, n, lda, loM, hiM int) {
	var packed [gemmKC * gemmNC]float32
	for k0 := 0; k0 < k; k0 += gemmKC {
		kc := min(gemmKC, k-k0)
		for j0 := 0; j0 < n; j0 += gemmNC {
			nc := min(gemmNC, n-j0)
			packPanelT(packed[:], b, n, k0, j0, kc, nc)
			for i := loM; i < hiM; i++ {
				gemmMicroRowDispatch(c[i*n+j0:i*n+j0+nc], a[i*lda+k0:i*lda+k0+kc], packed[:nc*kc])
			}
		}
	}
}

// gemmRangeRows computes c[i,:] += a[i,:]·b for rows i in [loM, hiM) without
// packing. k is cut into panels of gemmKC rows of b, and every row of the
// range sweeps a panel before the next, so the rows share each panel from
// cache instead of each streaming all of b (2×3072×768: 3.1 ms panelled,
// 5.3 ms full height; 1×3072×768: 1.7 vs 2.8 ms). C is read and written
// between panels, which is exact, so the result is bit-identical to
// GemmRangeNaive: per output element the same k-ascending, zero-skipping
// sequence.
func gemmRangeRows(c, a, b []float32, k, n, lda, loM, hiM int) {
	for k0 := 0; k0 < k; k0 += gemmKC {
		kc := min(gemmKC, k-k0)
		for i := loM; i < hiM; i++ {
			gemmRow(c[i*n:(i+1)*n], a[i*lda+k0:i*lda+k0+kc], b[k0*n:])
		}
	}
}

// gemmRow accumulates ci[j] += Σ_kk ai[kk]·b[kk, j] for b row-major with
// len(ci) columns, gemmRowNR C columns held in registers across all of ai,
// one a-element load feeding gemmRowNR multiply-adds from b[kk, j:j+gemmRowNR].
// Products of zero ai[kk] are skipped as the naive core skips them; on rows
// without zeros a branch-free copy of this loop measured no faster.
func gemmRow(ci, ai, b []float32) {
	n := len(ci)
	j := 0
	for ; j+gemmRowNR <= n; j += gemmRowNR {
		c0, c1, c2, c3, c4, c5, c6, c7 := ci[j], ci[j+1], ci[j+2], ci[j+3], ci[j+4], ci[j+5], ci[j+6], ci[j+7]
		for kk, av := range ai {
			if av == 0 {
				continue
			}
			bk := (*[gemmRowNR]float32)(b[kk*n+j:])
			c0 += av * bk[0]
			c1 += av * bk[1]
			c2 += av * bk[2]
			c3 += av * bk[3]
			c4 += av * bk[4]
			c5 += av * bk[5]
			c6 += av * bk[6]
			c7 += av * bk[7]
		}
		ci[j], ci[j+1], ci[j+2], ci[j+3], ci[j+4], ci[j+5], ci[j+6], ci[j+7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
	for ; j < n; j++ {
		c0 := ci[j]
		for kk, av := range ai {
			if av == 0 {
				continue
			}
			c0 += av * b[kk*n+j]
		}
		ci[j] = c0
	}
}

// gemmMicroRowDispatch picks the micro-kernel per row chunk: rows with no
// zeros (the common dense case) take the branch-free kernel — trivially
// bit-identical since the skip never fires on them — while rows carrying
// exact zeros (ReLU-masked activations, the shadowy-sparsity case) keep the
// naive core's zero-product skip, for speed and for the skip's exact
// semantics. The scan costs len(ai) compares amortized over the stripe.
func gemmMicroRowDispatch(ci, ai, bt []float32) {
	for _, v := range ai {
		if v == 0 {
			gemmMicroRow(ci, ai, bt)
			return
		}
	}
	gemmMicroRowDense(ci, ai, bt)
}

// packPanelT copies b[k0:k0+kc, j0:j0+nc] transposed into packed: column
// j0+j of the stripe becomes the contiguous stream packed[j*kc : (j+1)*kc].
// Reads are sequential row segments; the 32 KiB write region stays in L1.
func packPanelT(packed, b []float32, n, k0, j0, kc, nc int) {
	for kk := 0; kk < kc; kk++ {
		src := b[(k0+kk)*n+j0 : (k0+kk)*n+j0+nc]
		for j, v := range src {
			packed[j*kc+kk] = v
		}
	}
}

// gemmMicroRow accumulates one C row stripe against the packed panel:
// ci[j] += dot(ai, bt column j) for every j, four columns at a time with
// the four C values in registers, initialized from C so the addition order
// matches the naive core exactly.
func gemmMicroRow(ci, ai, bt []float32) {
	kc := len(ai)
	nc := len(ci)
	j := 0
	for ; j+gemmNR <= nc; j += gemmNR {
		b0 := bt[j*kc : (j+1)*kc]
		b1 := bt[(j+1)*kc : (j+2)*kc]
		b2 := bt[(j+2)*kc : (j+3)*kc]
		b3 := bt[(j+3)*kc : (j+4)*kc]
		c0, c1, c2, c3 := ci[j], ci[j+1], ci[j+2], ci[j+3]
		for kk, aik := range ai {
			if aik == 0 {
				continue
			}
			c0 += aik * b0[kk]
			c1 += aik * b1[kk]
			c2 += aik * b2[kk]
			c3 += aik * b3[kk]
		}
		ci[j], ci[j+1], ci[j+2], ci[j+3] = c0, c1, c2, c3
	}
	for ; j < nc; j++ {
		bj := bt[j*kc : (j+1)*kc]
		c0 := ci[j]
		for kk, aik := range ai {
			if aik == 0 {
				continue
			}
			c0 += aik * bj[kk]
		}
		ci[j] = c0
	}
}

// gemmMicroRowDense is gemmMicroRow without the zero-product skip — only
// valid when ai contains no zeros, where the two are bit-identical.
func gemmMicroRowDense(ci, ai, bt []float32) {
	kc := len(ai)
	nc := len(ci)
	j := 0
	for ; j+gemmNR <= nc; j += gemmNR {
		b0 := bt[j*kc : (j+1)*kc]
		b1 := bt[(j+1)*kc : (j+2)*kc]
		b2 := bt[(j+2)*kc : (j+3)*kc]
		b3 := bt[(j+3)*kc : (j+4)*kc]
		c0, c1, c2, c3 := ci[j], ci[j+1], ci[j+2], ci[j+3]
		for kk, aik := range ai {
			c0 += aik * b0[kk]
			c1 += aik * b1[kk]
			c2 += aik * b2[kk]
			c3 += aik * b3[kk]
		}
		ci[j], ci[j+1], ci[j+2], ci[j+3] = c0, c1, c2, c3
	}
	for ; j < nc; j++ {
		bj := bt[j*kc : (j+1)*kc]
		c0 := ci[j]
		for kk, aik := range ai {
			c0 += aik * bj[kk]
		}
		ci[j] = c0
	}
}

// gemmTBRangeTiled computes c[i,j] += dot(a[i,:], b[j,:]) (c += a·bᵀ) for
// rows i in [loM, hiM) of c (row stride ldc), cache-blocked over rows of b
// so a stripe of B rows stays resident while every output row sweeps it,
// with 4 independent dot accumulators sharing each load of a[i,:]. B's rows
// are already the dot streams, so no packing is needed. Bit-identical to
// GemmTBRangeNaive (one accumulator per output element, k ascending).
func gemmTBRangeTiled(c, a, b []float32, k, n, ldc, loM, hiM int) {
	// Stripe of B rows sized to L1d: jb rows of k float32 ≤ 32 KiB.
	jb := (32 * 1024 / 4) / k
	jb -= jb % gemmNR
	if jb < gemmNR {
		jb = gemmNR
	}
	for j0 := 0; j0 < n; j0 += jb {
		je := min(j0+jb, n)
		jFull := je - (je-j0)%gemmNR
		for i := loM; i < hiM; i++ {
			ai := a[i*k : (i+1)*k]
			ci := c[i*ldc : i*ldc+n]
			for j := j0; j < jFull; j += gemmNR {
				b0 := b[j*k : (j+1)*k]
				b1 := b[(j+1)*k : (j+2)*k]
				b2 := b[(j+2)*k : (j+3)*k]
				b3 := b[(j+3)*k : (j+4)*k]
				var s0, s1, s2, s3 float32
				for kk, av := range ai {
					s0 += av * b0[kk]
					s1 += av * b1[kk]
					s2 += av * b2[kk]
					s3 += av * b3[kk]
				}
				ci[j] += s0
				ci[j+1] += s1
				ci[j+2] += s2
				ci[j+3] += s3
			}
			for j := jFull; j < je; j++ {
				bj := b[j*k : (j+1)*k]
				var s float32
				for kk, av := range ai {
					s += av * bj[kk]
				}
				ci[j] += s
			}
		}
	}
}

// gemmTARangeTiled computes c[i,:] += Σ_k a[k,i]·b[k,:] (c += aᵀ·b) for
// rows i in [loM, hiM), a: [kDim,m], b: [kDim,n]. Same panel scheme as
// gemmRangeTiled; the strided column a[:,i] is gathered into a small
// buffer once per (panel, row) and amortized over the packed stripe.
// Bit-identical to GemmTARangeNaive.
func gemmTARangeTiled(c, a, b []float32, kDim, m, n, loM, hiM int) {
	var packed [gemmKC * gemmNC]float32
	var acol [gemmKC]float32
	for k0 := 0; k0 < kDim; k0 += gemmKC {
		kc := min(gemmKC, kDim-k0)
		for j0 := 0; j0 < n; j0 += gemmNC {
			nc := min(gemmNC, n-j0)
			packPanelT(packed[:], b, n, k0, j0, kc, nc)
			for i := loM; i < hiM; i++ {
				for kk := 0; kk < kc; kk++ {
					acol[kk] = a[(k0+kk)*m+i]
				}
				gemmMicroRowDispatch(c[i*n+j0:i*n+j0+nc], acol[:kc], packed[:nc*kc])
			}
		}
	}
}
