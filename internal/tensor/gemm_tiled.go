package tensor

import "math"

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
//     groups for it; GemmTBRangePacked packs the same groups from packed
//     storage, widening each weight as it is copied, so every format's
//     a·bᵀ runs one driver (gemmTBRangeDot) and one kernel.
//
// On amd64 with AVX (CPUID, and XGETBV for the OS's YMM state; useAVX, set
// once at init) both run as the assembly kernels of gemm_amd64.s, eight
// lanes per instruction: 32 lanes in four YMM registers, or 8 in one (the
// dot kernel then runs four rows at once, one register each). Lanes of
// gemmAxpy past the last 8-lane group run a scalar loop. An f32
// GemmTBRange of fewer than gemmTBMinRows rows does not pack: gemmDotTAVX
// runs gemmDot's lanes over b's rows where they lie, transposing eight
// rows at a time in registers. Without AVX both primitives run Go
// implementations, eight lanes held in registers at a time (gemmAxpy8,
// gemmDot8); the f32 GemmTBRange then never packs, and its scalar 4-wide
// core reads b's rows in place, while GemmTBRangePacked still runs
// gemmDot. The kernels have no bounds checks: their Go callers cut every
// operand to exactly the extent the kernel touches, checked against len
// (span), so a short slice panics in Go before any kernel runs.
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
	// copies b once per call whatever the row count, so with AVX fewer
	// rows run gemmDotTAVX over b's rows in place, which reloads and
	// re-transposes b for every row. Single thread on an Intel Xeon VM, in
	// place against packed, at k×n = 64×256 (decode's FC1): one row 2.4 vs
	// 7.7 µs, three 4.7 vs 8.5, four 6.1 vs 9.9, eight 14.5 vs 11.6; at
	// 768×768 one row 67 vs 252 µs and four 253 vs 411. Training's
	// many-row calls keep the packed path.
	gemmTBMinRows = 5
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
// in [loM, hiM), b: [k,n] with row stride ldb and c: [·,n] row-major —
// GemmRange with ars = lda, as = 1, and GemmTARange with ars = 1, as = m.
func gemmAxpyRange(c, a, b []float32, k, n, ldb, ars, as, loM, hiM int) {
	if hiM <= loM {
		return
	}
	for k0 := 0; k0 < k; k0 += gemmKC {
		kc := min(gemmKC, k-k0)
		for j0 := 0; j0 < n; j0 += gemmNC {
			gemmAxpy(c[loM*n+j0:], n, a[loM*ars+k0*as:], ars, as, b[k0*ldb+j0:], ldb, kc, min(gemmNC, n-j0), hiM-loM)
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

// gemmTBRangeDot computes c[i,j] += dot(a[i,:], B[j,:]) for rows i in
// [loM, hiM), a: [m,k], c row stride ldc, where B: [n,k] is the f32 rows b
// or, when p is non-nil, p's rows. Columns go in groups of gemmNC (then
// gemmRowNR) B rows, each packed k-major one k panel at a time and swept by
// the rows of a. When k spans several panels or n ends in a partial group,
// up to gemmTBRows rows share each packed panel and keep their partial sums
// in acc. The buffers are sized to k: Go zeroes them on every call.
func gemmTBRangeDot(c, a, b []float32, p *PackedWeights, k, n, ldc, loM, hiM int) {
	full := n%gemmRowNR == 0
	if k <= gemmTBSmallK && full {
		var bp [gemmTBSmallK * gemmNC]float32
		gemmTBGroups(c, a, b, p, k, n, ldc, loM, hiM, bp[:], nil)
		return
	}
	var bp [gemmKC * gemmNC]float32
	if k <= gemmKC && full {
		gemmTBGroups(c, a, b, p, k, n, ldc, loM, hiM, bp[:], nil)
		return
	}
	var acc [gemmTBRows * gemmNC]float32
	gemmTBGroups(c, a, b, p, k, n, ldc, loM, hiM, bp[:], acc[:])
}

// gemmTBGroups is gemmTBRangeDot over panels of len(bp)/gemmNC rows of k;
// acc is nil when k fits one panel and every group is full. The last
// n%gemmRowNR columns run as one gemmRowNR-lane group whose sums stay in
// acc; only its first nr lanes are added to c.
func gemmTBGroups(c, a, b []float32, p *PackedWeights, k, n, ldc, loM, hiM int, bp, acc []float32) {
	kcMax, rows := len(bp)/gemmNC, hiM-loM
	if acc != nil {
		rows = len(acc) / gemmNC
	}
	for j0 := 0; j0 < n; {
		w := gemmRowNR
		if j0+gemmNC <= n {
			w = gemmNC
		}
		nr := min(w, n-j0)
		for r0 := loM; r0 < hiM; r0 += rows {
			r1 := min(r0+rows, hiM)
			var s []float32
			if acc != nil {
				s = acc[:(r1-r0)*w]
				clear(s)
			}
			for k0 := 0; k0 < k; k0 += kcMax {
				kc := min(kcMax, k-k0)
				packDotGroup(bp[:kc*w], b, p, k, j0, k0, w, nr)
				var cr []float32
				if k0+kc == k && nr == w {
					cr = c[r0*ldc+j0:]
				}
				gemmDot(cr, ldc, s, a[r0*k+k0:], k, bp[:kc*w], kc, w, r1-r0)
			}
			for r := r0; nr < w && r < r1; r++ {
				for j, v := range s[(r-r0)*w:][:nr] {
					c[r*ldc+j0+j] += v
				}
			}
		}
		j0 += w
	}
}

// packDotGroup copies w rows of B from row j0, len(bp)/w elements of each
// from column k0, into bp k-major: bp[kk·w + j] = B[j0+j, k0+kk]. Eight
// rows go at a time, so each step writes eight contiguous lanes; a packed
// row widens to exactly the float32 Dequant gives. Rows from nr on (the
// tail group) repeat row nr-1: nothing past B's last row is read, and
// those lanes never reach c.
func packDotGroup(bp, b []float32, p *PackedWeights, k, j0, k0, w, nr int) {
	kc := len(bp) / w
	for j := 0; j < w; j += gemmRowNR {
		var rows [gemmRowNR]int
		for t := range rows {
			rows[t] = j0 + min(j+t, nr-1)
		}
		switch {
		case p == nil:
			packDot8(bp[j:], w, dotRows(b, rows, k, k0, kc))
		case p.Format == WeightF16:
			packDot8F16(bp[j:], w, dotRows(p.F16, rows, k, k0, kc))
		case p.Format == WeightI8:
			packDot8I8(bp[j:], w, dotRows(p.I8, rows, k, k0, kc), p.Scale, rows)
		default:
			packDot8NM24(bp[j:], w, p, rows, k0, kc)
		}
	}
}

// packDot8 is packDotGroup's step for eight f32 rows.
func packDot8(bp []float32, w int, r [gemmRowNR][]float32) {
	r0 := r[0]
	r1, r2, r3, r4, r5, r6, r7 := r[1][:len(r0)], r[2][:len(r0)], r[3][:len(r0)], r[4][:len(r0)], r[5][:len(r0)], r[6][:len(r0)], r[7][:len(r0)]
	for kk := range r0 {
		d := (*[gemmRowNR]float32)(bp[kk*w:])
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = r0[kk], r1[kk], r2[kk], r3[kk], r4[kk], r5[kk], r6[kk], r7[kk]
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
	if c != nil {
		c = span(c, (rows-1)*ldc+w)
	}
	if s != nil {
		s = span(s, rows*w)
	}
	if !useAVX {
		for r := 0; r < rows; r++ {
			for j := 0; j < w; j += gemmRowNR {
				gemmDot8(c, r*ldc+j, s, r*w+j, a[r*lda:r*lda+kc], b[j:], w)
			}
		}
		return
	}
	var cp, sp *float32
	if c != nil {
		cp = &c[0]
	}
	if s != nil {
		sp = &s[0]
	}
	gemmDotAVX(cp, sp, &a[0], &b[0], kc, w, rows, ldc, lda)
}

// gemmDot8 is the portable gemmDot for one row's 8-lane group: the lanes
// start from s[so:], add a[kk]·b[kk·ldb:] for every kk, and end in c[co:]
// or s[so:].
func gemmDot8(c []float32, co int, s []float32, so int, a, b []float32, ldb int) {
	var d [gemmRowNR]float32
	if s != nil {
		d = *(*[gemmRowNR]float32)(s[so:])
	}
	d0, d1, d2, d3, d4, d5, d6, d7 := d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]
	for kk, av := range a {
		bk := (*[gemmRowNR]float32)(b[kk*ldb:])
		d0, d1, d2, d3 = d0+av*bk[0], d1+av*bk[1], d2+av*bk[2], d3+av*bk[3]
		d4, d5, d6, d7 = d4+av*bk[4], d5+av*bk[5], d6+av*bk[6], d7+av*bk[7]
	}
	if c == nil {
		*(*[gemmRowNR]float32)(s[so:]) = [gemmRowNR]float32{d0, d1, d2, d3, d4, d5, d6, d7}
		return
	}
	ci := (*[gemmRowNR]float32)(c[co:])
	ci[0], ci[1], ci[2], ci[3], ci[4], ci[5], ci[6], ci[7] = ci[0]+d0, ci[1]+d1, ci[2]+d2, ci[3]+d3, ci[4]+d4, ci[5]+d5, ci[6]+d6, ci[7]+d7
}

// span returns s[:n] for n ≥ 1, panicking when len(s) < n. A reslice
// alone checks only against cap, and the kernels must not run past len.
func span(s []float32, n int) []float32 {
	_ = s[n-1]
	return s[:n]
}

// gemmTBRangeInPlace is GemmTBRange for fewer than gemmTBMinRows rows with
// AVX, n ≥ gemmRowNR: gemmDotTAVX reads b's rows where they lie, so no
// pack is paid for a few rows' work. Its lanes sum as gemmDot's do — from
// +0, k ascending, one product then one add per step — so a row equals
// the same row of a packed many-row call. The last n%gemmRowNR columns run
// as the eight ending at n, summed into a scratch of -0 (x + -0 is x for
// every x), and only those columns are added to c, as gemmTBGroups adds
// its tail group's.
func gemmTBRangeInPlace(c, a, b []float32, k, n, ldc, loM, hiM int) {
	full := n - n%gemmRowNR
	for i := loM; i < hiM; i++ {
		ai := span(a[i*k:], k)
		ci := c[i*ldc : i*ldc+n]
		gemmDotTAVX(&ci[0], &ai[0], &b[0], k, full)
		if full == n {
			continue
		}
		var t [gemmRowNR]float32
		for j := range t {
			t[j] = negZero
		}
		gemmDotTAVX(&t[0], &ai[0], &b[(n-gemmRowNR)*k], k, gemmRowNR)
		for j, v := range t[gemmRowNR-(n-full):] {
			ci[full+j] += v
		}
	}
}

// negZero is -0, the float32 additive identity.
var negZero = float32(math.Copysign(0, -1))

// gemmTBRangeTiled computes c[i,j] += dot(a[i,:], b[j,:]) (c += a·bᵀ) for
// rows i in [loM, hiM) of c (row stride ldc), cache-blocked over rows of b
// so a stripe of B rows stays resident while every output row sweeps it,
// with 4 independent dot accumulators sharing each load of a[i,:]. B's rows
// are already the dot streams, so no packing is needed — the multi-column
// TB core of builds without AVX. Bit-identical to GemmTBRangeNaive (one
// accumulator per output element, k ascending).
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
