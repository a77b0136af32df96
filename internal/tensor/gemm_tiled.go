package tensor

// Register-kernel GEMM cores. These are the hot paths behind
// GemmRange/GemmTBRange/GemmTARange; the straight i-k-j seed cores live in
// matmul.go as GemmRangeNaive et al. and remain the correctness references.
//
// Two primitives carry every product, each over a run of rows per call:
//   - gemmAxpy: c[0:w] += Σ_kk a[kk·as]·b[kk·ldb : kk·ldb+w], the w lanes of
//     a row of c held in registers across a k panel, one broadcast a element
//     feeding w multiplies and adds from a contiguous b-row segment.
//     GemmRange runs it with as = 1, reading b where it lies (ldb = n);
//     GemmTARange with as = m, reading the strided column a[:, i] in place;
//     GemmRangePacked over a widened row-major panel (ldb = panel width).
//   - gemmDot: lane j accumulates the dot product of a row of a with column
//     j of a k-major packed group of b rows, from +0, and the sum is added
//     to c at the end. GemmTBRange packs b's rows into 32- or 8-column
//     groups for it.
//
// On amd64 with AVX (CPUID, and XGETBV for the OS's YMM state; useAVX, set
// once at init) both run as the assembly kernels of gemm_amd64.s, eight
// lanes per instruction: 32 lanes in four YMM registers, or 8 in one (the
// dot kernel then runs four rows at once, one register each). Lanes past
// the last 8-lane group run a scalar loop. Without AVX, gemmAxpy runs a Go
// implementation of the same primitive, and GemmTBRange never packs: its
// scalar 4-wide core reads b's rows in place. The kernels have no bounds
// checks: gemmAxpy and gemmDot cut every operand to exactly the extent the
// kernel touches, checked against len (span), so a short slice panics in
// Go before any kernel runs.
//
// Loop order: k is cut into panels of gemmKC rows of b and the columns into
// stripes of gemmNC, and every row of a range sweeps one panel stripe
// (32 KiB, L1d) before the next, so the rows share it from cache.
//
// Numerical contract: every output element sees exactly the float32
// sequence of its naive core, so the kernels are bit-identical to the
// naive cores, and a row's result does not depend on how many rows share
// the call (TestGemm*BitIdentical, TestGemmRowCountIndependent):
//   - Multiply, then add: each step rounds the product and then the sum
//     (VMULPS, VADDPS), as the naive Go loop does — the Go compiler emits
//     no FMA on amd64 at the default GOAMD64 level. A fused multiply-add
//     rounds once, so it differs in the last bit on some products; through
//     training those bits compound, and every golden pin recorded with
//     separate roundings (TestGoldenSparseFineTune, the workspace, decode
//     and determinism bit-identity tests, the benchmark's loss_gap) breaks.
//   - k ascending. C (and gemmDot's partial sums) are read and written
//     between k panels; loads and stores are exact.
//   - Zero skip on the broadcast a: gemmAxpy skips a step whose a element
//     compares equal to zero (±0; NaN is not skipped), as GemmRangeNaive
//     and GemmTARangeNaive skip it. This is semantics, not only speed:
//     0·inf would turn c into NaN, and -0 + +0 is +0. The kernel tests a
//     contiguous a eight elements at a time and runs only the steps left,
//     so a ReLU-sparse a saves the work without a branch per zero.
//     gemmDot skips nothing, as GemmTBRangeNaive skips nothing.

const (
	gemmNR    = 4   // scalar TB core's register tile width: C columns held in registers
	gemmRowNR = 8   // lanes of one YMM register: the narrow kernel width
	gemmNC    = 32  // lanes of four YMM registers: the wide kernel width
	gemmKC    = 256 // k-panel depth; gemmKC·gemmNC·4 B = 32 KiB ≈ L1d

	// gemmTBMinRows is the fewest rows GemmTBRange packs b for. The pack
	// copies b once per call whatever the row count, so few rows run the
	// scalar core, which reads b's rows in place. Single thread on a 2 GHz
	// Intel Xeon VM, scalar against packed: one row loses to the pack at
	// every shape measured (k×n = 64×256 8.7 vs 12 µs, 768×768 0.27 vs
	// 0.47 ms); two rows tie overall (64×256 17 vs 15 µs, 768×768 0.45 vs
	// 0.52 ms, 128×128 15 vs 15 µs); three rows win packed everywhere
	// (64×256 23 vs 18 µs, 256×64 28 vs 15 µs, 768×768 0.82 vs 0.52 ms).
	gemmTBMinRows = 3
	// gemmTBRows is how many rows share one packed TB panel and keep their
	// partial sums between k panels.
	gemmTBRows = 64
	// gemmTBSmallK is the deepest k GemmTBRange packs into its small
	// buffer (8 KiB instead of 32 to zero per call). Attention's block
	// products (k = head dim) are that shallow: twelve alternating pairs of
	// the finetune.sparse.seq512 benchmark, 2 GHz Xeon VM, took gap_ms
	// from 181 to 174 ms median with it, faster in 10 of 12.
	gemmTBSmallK = 64
)

// useAVX selects the assembly kernels. It is set once from the CPU; tests
// flip it to cover the portable path.
var useAVX = cpuHasAVX()

// gemmTiledWorthIt reports whether the scalar TB core's 4-wide tiles pay
// for themselves. Skinny products (LoRA ranks, tiny blocks) stay on the
// naive core.
func gemmTiledWorthIt(k, n int) bool { return k >= 8 && n >= gemmNR }

// gemmAxpyRange computes c[i,:] += Σ_kk a[i·ars + kk·as]·b[kk,:] for rows i
// in [loM, hiM), b: [k,n] and c: [·,n] row-major — GemmRange with ars =
// lda, as = 1, and GemmTARange with ars = 1, as = m.
func gemmAxpyRange(c, a, b []float32, k, n, ars, as, loM, hiM int) {
	if hiM <= loM {
		return
	}
	for k0 := 0; k0 < k; k0 += gemmKC {
		kc := min(gemmKC, k-k0)
		for j0 := 0; j0 < n; j0 += gemmNC {
			gemmAxpy(c[loM*n+j0:], n, a[loM*ars+k0*as:], ars, as, b[k0*n+j0:], n, kc, min(gemmNC, n-j0), hiM-loM)
		}
	}
}

// gemmAxpy computes c[r·ldc + j] += a[r·ars + kk·as]·b[kk·ldb + j] for
// every row r < rows and lane j < w, kk ascending over kc steps, skipping
// steps whose a element is zero.
func gemmAxpy(c []float32, ldc int, a []float32, ars, as int, b []float32, ldb, kc, w, rows int) {
	if kc == 0 || w == 0 || rows == 0 {
		return
	}
	c = span(c, (rows-1)*ldc+w)
	a = span(a, (rows-1)*ars+(kc-1)*as+1)
	b = span(b, (kc-1)*ldb+w)
	j := 0
	if useAVX {
		for ; j+gemmNC <= w; j += gemmNC {
			gemmAxpyAVX(&c[j], &a[0], &b[j], kc, as, ldb, gemmNC, rows, ldc, ars)
		}
		for ; j+gemmRowNR <= w; j += gemmRowNR {
			gemmAxpyAVX(&c[j], &a[0], &b[j], kc, as, ldb, gemmRowNR, rows, ldc, ars)
		}
		if j == w {
			return
		}
	}
	for r := 0; r < rows; r++ {
		gemmAxpyRow(c[r*ldc+j:r*ldc+w], a[r*ars:], as, b[j:], ldb, kc)
	}
}

// gemmAxpyRow is the portable gemmAxpy for one row: groups of 8 lanes held
// in registers, then the lanes left over one at a time.
func gemmAxpyRow(c, a []float32, as int, b []float32, ldb, kc int) {
	j := 0
	for ; j+gemmRowNR <= len(c); j += gemmRowNR {
		gemmAxpy8(c[j:j+gemmRowNR], a, as, b[j:], ldb, kc)
	}
	for kk := 0; j < len(c) && kk < kc; kk++ {
		av := a[kk*as]
		if av == 0 {
			continue
		}
		for t, bv := range b[kk*ldb+j : kk*ldb+len(c)] {
			c[j+t] += av * bv
		}
	}
}

// gemmAxpy8 is gemmAxpyRow's 8-lane group.
func gemmAxpy8(c, a []float32, as int, b []float32, ldb, kc int) {
	ci := (*[gemmRowNR]float32)(c)
	c0, c1, c2, c3, c4, c5, c6, c7 := ci[0], ci[1], ci[2], ci[3], ci[4], ci[5], ci[6], ci[7]
	for kk := 0; kk < kc; kk++ {
		av := a[kk*as]
		if av == 0 {
			continue
		}
		bk := (*[gemmRowNR]float32)(b[kk*ldb:])
		c0 += av * bk[0]
		c1 += av * bk[1]
		c2 += av * bk[2]
		c3 += av * bk[3]
		c4 += av * bk[4]
		c5 += av * bk[5]
		c6 += av * bk[6]
		c7 += av * bk[7]
	}
	ci[0], ci[1], ci[2], ci[3], ci[4], ci[5], ci[6], ci[7] = c0, c1, c2, c3, c4, c5, c6, c7
}

// gemmTBRangeDot computes c[i,j] += dot(a[i,:], b[j,:]) for rows i in
// [loM, hiM), a: [m,k], b: [n,k], c row stride ldc. Columns go in groups of
// gemmNC (then gemmRowNR) b rows, each packed k-major one k panel at a
// time and swept by the rows of a. When k spans several panels, up to
// gemmTBRows rows share each packed panel and keep their partial sums in
// acc between panels. Columns past the last group run the naive core. The
// buffers are sized to k: Go zeroes them on every call.
func gemmTBRangeDot(c, a, b []float32, k, n, ldc, loM, hiM int) {
	if k <= gemmTBSmallK {
		var bp [gemmTBSmallK * gemmNC]float32
		gemmTBGroups(c, a, b, k, n, ldc, loM, hiM, bp[:], nil)
		return
	}
	var bp [gemmKC * gemmNC]float32
	if k <= gemmKC {
		gemmTBGroups(c, a, b, k, n, ldc, loM, hiM, bp[:], nil)
		return
	}
	var acc [gemmTBRows * gemmNC]float32
	gemmTBGroups(c, a, b, k, n, ldc, loM, hiM, bp[:], acc[:])
}

// gemmTBGroups is gemmTBRangeDot over panels of len(bp)/gemmNC rows of k;
// acc is nil when k fits one panel.
func gemmTBGroups(c, a, b []float32, k, n, ldc, loM, hiM int, bp, acc []float32) {
	kcMax, rows := len(bp)/gemmNC, hiM-loM
	if acc != nil {
		rows = len(acc) / gemmNC
	}
	j0 := 0
	for j0+gemmRowNR <= n {
		w := gemmRowNR
		if j0+gemmNC <= n {
			w = gemmNC
		}
		for r0 := loM; r0 < hiM; r0 += rows {
			r1 := min(r0+rows, hiM)
			var s []float32
			if acc != nil {
				s = acc[:(r1-r0)*w]
				clear(s)
			}
			for k0 := 0; k0 < k; k0 += kcMax {
				kc := min(kcMax, k-k0)
				packDotGroup(bp[:kc*w], b[j0*k+k0:], k, kc, w)
				var cr []float32
				if k0+kc == k {
					cr = c[r0*ldc+j0:]
				}
				gemmDot(cr, ldc, s, a[r0*k+k0:], k, bp[:kc*w], kc, w, r1-r0)
			}
		}
		j0 += w
	}
	if j0 < n {
		GemmTBRangeNaive(c[j0:], a, b[j0*k:], k, n-j0, ldc, loM, hiM)
	}
}

// packDotGroup copies w rows of b (row stride k), kc elements each, into
// bp k-major: bp[kk·w + j] = b[j·k + kk]. Eight rows at a time, so each
// step writes eight contiguous lanes.
func packDotGroup(bp, b []float32, k, kc, w int) {
	for j := 0; j < w; j += gemmRowNR {
		r0 := b[j*k : j*k+kc]
		r1 := b[(j+1)*k:][:len(r0)]
		r2 := b[(j+2)*k:][:len(r0)]
		r3 := b[(j+3)*k:][:len(r0)]
		r4 := b[(j+4)*k:][:len(r0)]
		r5 := b[(j+5)*k:][:len(r0)]
		r6 := b[(j+6)*k:][:len(r0)]
		r7 := b[(j+7)*k:][:len(r0)]
		for kk := range r0 {
			d := (*[gemmRowNR]float32)(bp[kk*w+j:])
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = r0[kk], r1[kk], r2[kk], r3[kk], r4[kk], r5[kk], r6[kk], r7[kk]
		}
	}
}

// gemmDot accumulates, for every row r < rows and lane j < w, the sum
// Σ_kk a[r·lda + kk]·b[kk·w + j] over kc ≥ 1 steps, kk ascending, no step
// skipped. The lanes start from s[r·w + j], or from +0 when s is nil; they
// are then added to c[r·ldc + j] when c is non-nil (s is left as it was)
// and stored to s otherwise.
func gemmDot(c []float32, ldc int, s, a []float32, lda int, b []float32, kc, w, rows int) {
	a = span(a, (rows-1)*lda+kc)
	b = span(b, kc*w)
	var cp, sp *float32
	if c != nil {
		c = span(c, (rows-1)*ldc+w)
		cp = &c[0]
	}
	if s != nil {
		s = span(s, rows*w)
		sp = &s[0]
	}
	gemmDotAVX(cp, sp, &a[0], &b[0], kc, w, rows, ldc, lda)
}

// span returns s[:n] for n ≥ 1, panicking when len(s) < n. A reslice
// alone checks only against cap, and the kernels must not run past len.
func span(s []float32, n int) []float32 {
	_ = s[n-1]
	return s[:n]
}

// gemmTBRangeTiled computes c[i,j] += dot(a[i,:], b[j,:]) (c += a·bᵀ) for
// rows i in [loM, hiM) of c (row stride ldc), cache-blocked over rows of b
// so a stripe of B rows stays resident while every output row sweeps it,
// with 4 independent dot accumulators sharing each load of a[i,:]. B's rows
// are already the dot streams, so no packing is needed — the core for
// calls of too few rows to pay for gemmTBRangeDot's pack, and the only
// multi-column TB core without AVX. Bit-identical to
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
