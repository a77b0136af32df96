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
// Numerical contract: for every output element the sequence of float32
// additions is exactly the sequence the naive core performs (k ascending,
// zero products skipped, C read-modify-written between panels — loads and
// stores are exact). The tiled cores are therefore bit-identical to the
// naive cores, not merely close; TestGemmTiledBitIdentical pins this.

const (
	gemmNR = 4   // register tile width: C columns held in registers
	gemmKC = 256 // B-panel depth (rows of B packed per stripe)
	gemmNC = 32  // B-panel width; gemmKC*gemmNC*4B = 32 KiB ≈ L1d
)

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
