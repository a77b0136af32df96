package tensor

import (
	"fmt"
	"math"

	"longexposure/internal/half"
	"longexposure/internal/parallel"
)

// Compact weight storage for the frozen base. The paper stores parameters
// in fp16 and computes in fp32 (§VII-A); on CPU the win is not arithmetic
// but bytes: a packed matrix streams half (fp16), a quarter (int8) or
// 0.625× (2:4 structured sparsity) of the weight bytes of the f32 path.
// Storage changes, arithmetic never does: a product widens the weights to
// f32 and runs the f32 kernels of gemm_tiled.go on them. c += a·P widens
// one L1 panel at a time for gemmAxpy, and c += a·Pᵀ widens B's rows into
// gemmDot's k-major groups as it packs them, exactly as GemmTBRange packs
// f32 rows; a 2:4 matrix widens by clearing the lanes and scattering its
// kept values. Only one row (a one-stream decode step) skips the widening
// and reads the weights in place: a·P in a row kernel per format
// (gemmRowF16/gemmRowI8/gemmRowNM24), and a 2:4 a·Pᵀ in a dot over the
// kept entries (gemmTBRowNM24). Every weight widens to exactly the f32
// value Dequant produces, so each packed product is bit-identical to the
// f32 product over the dequantized matrix (TestGemmPackedBitIdentical,
// TestGemmTBPacked). Packed weights are read-only by construction: there
// is no gradient path, the frozen-base contract PEFT serving relies on.

// WeightFormat selects the storage element of a PackedWeights.
type WeightFormat uint8

const (
	// WeightF16 stores IEEE-754 binary16 bit patterns: 2 bytes/element,
	// exact for every weight already representable in fp16.
	WeightF16 WeightFormat = iota + 1
	// WeightI8 stores symmetric per-channel int8: 1 byte/element plus one
	// f32 scale per output channel (the bitsandbytes LLM.int8 scheme
	// without the outlier path — frozen bases are published post-training,
	// so outliers are a publish-time decision, not a runtime one).
	WeightI8
	// WeightNM24 stores 2:4 structured sparsity (SLoPe, arXiv:2405.16325):
	// of every aligned group of four weights along a row, the two of
	// largest magnitude survive as f32 values plus 1-byte in-group offsets,
	// 2.5 bytes/element; the other two are exact zeros.
	WeightNM24
)

func (f WeightFormat) String() string {
	switch f {
	case WeightF16:
		return "f16"
	case WeightI8:
		return "int8"
	case WeightNM24:
		return "nm24"
	}
	return fmt.Sprintf("WeightFormat(%d)", uint8(f))
}

// Scale axes for WeightI8: per-channel means per output neuron, and which
// storage axis that is depends on the orientation the kernel consumes.
const (
	// ScalePerRow: Scale[r] dequantizes row r — the layout GemmTBRangePacked
	// needs (rows are output channels in c += a·bᵀ).
	ScalePerRow = 0
	// ScalePerCol: Scale[c] dequantizes column c — the layout
	// GemmRangePacked needs (columns are output channels in c += a·b).
	ScalePerCol = 1
)

// PackedWeights is a read-only weight matrix in compact storage, logically
// row-major [Rows][Cols]. Exactly one of F16/I8/NMVal is populated.
type PackedWeights struct {
	Rows, Cols int
	Format     WeightFormat

	F16 []half.Float16 // WeightF16: Rows*Cols fp16 bit patterns

	I8        []int8    // WeightI8: Rows*Cols quantized values
	Scale     []float32 // WeightI8: per-channel dequant scales
	ScaleAxis int       // WeightI8: ScalePerRow or ScalePerCol

	// WeightNM24: Rows*Cols/2 kept values, two per group of four columns,
	// row-major; the group of four starting at column c of row r holds
	// NMVal[(r·Cols+c)/2 :][:2] at columns c + NMIdx[same], ascending.
	NMVal []float32
	NMIdx []uint8
}

// Bytes reports the resident storage footprint of the packed matrix.
func (p *PackedWeights) Bytes() int64 {
	switch p.Format {
	case WeightF16:
		return half.Bytes(len(p.F16))
	case WeightI8:
		return int64(len(p.I8)) + 4*int64(len(p.Scale))
	case WeightNM24:
		return 4*int64(len(p.NMVal)) + int64(len(p.NMIdx))
	}
	return 0
}

// PackF16 quantizes a rank-2 f32 matrix to fp16 storage (round to nearest
// even). Weights already representable in fp16 survive exactly.
func PackF16(w *Tensor) *PackedWeights {
	rows, cols := check2D(w, "w")
	return &PackedWeights{
		Rows:   rows,
		Cols:   cols,
		Format: WeightF16,
		F16:    half.EncodeSlice(nil, w.Data),
	}
}

// PackInt8 quantizes a rank-2 f32 matrix to symmetric per-channel int8:
// scale = absmax/127 along the given axis (ScalePerRow or ScalePerCol),
// values rounded to nearest even and clamped to [-127, 127]. An all-zero
// channel gets scale 0 and dequantizes to exact zeros. Non-finite weights
// have no int8 form (a NaN packs to 0; an Inf makes its channel dequantize
// to NaN), so callers reject them first, as nn.Compress does.
func PackInt8(w *Tensor, axis int) *PackedWeights {
	rows, cols := check2D(w, "w")
	if axis != ScalePerRow && axis != ScalePerCol {
		panic(fmt.Sprintf("tensor: PackInt8 axis %d, want ScalePerRow or ScalePerCol", axis))
	}
	channels := rows
	if axis == ScalePerCol {
		channels = cols
	}
	scale := make([]float32, channels)
	for r := 0; r < rows; r++ {
		for c, v := range w.Data[r*cols : (r+1)*cols] {
			ch := r
			if axis == ScalePerCol {
				ch = c
			}
			if av := float32(math.Abs(float64(v))); av > scale[ch] {
				scale[ch] = av
			}
		}
	}
	for ch := range scale {
		scale[ch] /= 127
	}
	q := make([]int8, rows*cols)
	for r := 0; r < rows; r++ {
		for c, v := range w.Data[r*cols : (r+1)*cols] {
			ch := r
			if axis == ScalePerCol {
				ch = c
			}
			if scale[ch] == 0 {
				continue
			}
			t := math.RoundToEven(float64(v / scale[ch]))
			if t > 127 {
				t = 127
			} else if t < -127 {
				t = -127
			}
			q[r*cols+c] = int8(t)
		}
	}
	return &PackedWeights{Rows: rows, Cols: cols, Format: WeightI8, I8: q, Scale: scale, ScaleAxis: axis}
}

// PackNM24 prunes a rank-2 f32 matrix to 2:4 along its rows: of every
// aligned group of four columns, the two of largest |v| survive (ties keep
// the lower column; a NaN ranks as +Inf) and the other two become exact
// zeros. Cols must be a
// multiple of 4. A matrix already 2:4 structured survives exactly.
func PackNM24(w *Tensor) *PackedWeights {
	rows, cols := check2D(w, "w")
	if cols%4 != 0 {
		panic(fmt.Sprintf("tensor: PackNM24 cols %d not a multiple of 4", cols))
	}
	p := &PackedWeights{
		Rows: rows, Cols: cols, Format: WeightNM24,
		NMVal: make([]float32, rows*cols/2),
		NMIdx: make([]uint8, rows*cols/2),
	}
	for g := 0; g < len(w.Data); g += 4 {
		grp := w.Data[g : g+4]
		a := top2of4(grp, -1)
		b := top2of4(grp, a)
		lo, hi := min(a, b), max(a, b)
		p.NMVal[g/2], p.NMVal[g/2+1] = grp[lo], grp[hi]
		p.NMIdx[g/2], p.NMIdx[g/2+1] = uint8(lo), uint8(hi)
	}
	return p
}

// top2of4 returns the column of grp's largest |v| other than skip, the
// lowest column among ties. A NaN ranks as +Inf, so some column is always
// chosen and a NaN weight survives the pack rather than vanishing.
func top2of4(grp []float32, skip int) int {
	best, bestAbs := -1, float32(-1)
	for c, v := range grp {
		av := float32(math.Abs(float64(v)))
		if av != av {
			av = float32(math.Inf(1))
		}
		if c != skip && av > bestAbs {
			best, bestAbs = c, av
		}
	}
	return best
}

// RowRange returns rows [r0, r1) of p as a view over p's storage: a slice
// of F16, I8 or NMVal+NMIdx (2:4 groups run along rows). Per-row int8
// scales are sliced with the rows; per-column scales are kept whole.
func (p *PackedWeights) RowRange(r0, r1 int) PackedWeights {
	v, lo, hi := *p, r0*p.Cols, r1*p.Cols
	v.Rows = r1 - r0
	switch p.Format {
	case WeightF16:
		v.F16 = p.F16[lo:hi]
	case WeightI8:
		v.I8 = p.I8[lo:hi]
		if p.ScaleAxis == ScalePerRow {
			v.Scale = p.Scale[r0:r1]
		}
	case WeightNM24:
		v.NMVal, v.NMIdx = p.NMVal[lo/2:hi/2], p.NMIdx[lo/2:hi/2]
	}
	return v
}

// Dequant widens the packed matrix back to a fresh f32 tensor — the exact
// values every packed kernel computes with. Tests and estimators use it; the
// serving path never does.
func (p *PackedWeights) Dequant() *Tensor {
	t := New(p.Rows, p.Cols)
	switch p.Format {
	case WeightF16:
		half.DecodeSlice(t.Data, p.F16)
	case WeightI8:
		for r := 0; r < p.Rows; r++ {
			for c := 0; c < p.Cols; c++ {
				var s float32
				if p.ScaleAxis == ScalePerCol {
					s = p.Scale[c]
				} else {
					s = p.Scale[r]
				}
				t.Data[r*p.Cols+c] = float32(p.I8[r*p.Cols+c]) * s
			}
		}
	case WeightNM24:
		for i, v := range p.NMVal {
			t.Data[(i&^1)*2+int(p.NMIdx[i])] = v
		}
	default:
		panic(fmt.Sprintf("tensor: Dequant of unpopulated PackedWeights (format %v)", p.Format))
	}
	return t
}

// The widening pack routines below copy a panel of reduced-precision
// storage into a row-major f32 panel, the element conversion folded into
// the copy; the panel is then plain f32 and the gemmAxpy kernel runs over
// it unchanged. The conversion costs O(k·n) per call regardless of how
// many output rows amortize it, which is why a single row skips the pack.

// widenPanelF16 widens kc rows of nc columns of an fp16 matrix with row
// stride n into panel, row-major with row stride nc.
func widenPanelF16(panel []float32, b []half.Float16, n, kc, nc int) {
	for kk := 0; kk < kc; kk++ {
		dst := panel[kk*nc : (kk+1)*nc]
		for j, v := range b[kk*n : kk*n+nc] {
			dst[j] = v.ToFloat32()
		}
	}
}

// widenPanelI8 widens the same region of an int8 matrix, column j scaled
// by scale[j] (ScalePerCol layout).
func widenPanelI8(panel []float32, b []int8, scale []float32, n, kc, nc int) {
	scale = scale[:nc]
	for kk := 0; kk < kc; kk++ {
		dst := panel[kk*nc : (kk+1)*nc]
		for j, v := range b[kk*n : kk*n+nc] {
			dst[j] = float32(v) * scale[j]
		}
	}
}

// widenPanelNM24 widens kc rows from row k0 of nc columns from column j0
// of a 2:4 matrix into panel: each panel row is cleared and the kept
// values scattered into it. j0 and nc are multiples of 4.
func widenPanelNM24(panel []float32, p *PackedWeights, k0, j0, kc, nc int) {
	for kk := 0; kk < kc; kk++ {
		dst := panel[kk*nc : (kk+1)*nc]
		clear(dst)
		o := ((k0+kk)*p.Cols + j0) / 2
		val, idx := p.NMVal[o:o+nc/2], p.NMIdx[o:o+nc/2]
		for s := 0; s+1 < len(val); s += 2 {
			g := (*[4]float32)(dst[2*s:])
			g[idx[s]&3] = val[s]
			g[idx[s+1]&3] = val[s+1]
		}
	}
}

// dotRows cuts kc elements from column k0 out of each listed row of a
// row-major matrix with row stride k.
func dotRows[E float32 | half.Float16 | int8](b []E, rows [gemmRowNR]int, k, k0, kc int) (r [gemmRowNR][]E) {
	for t, j := range rows {
		r[t] = b[j*k+k0:][:kc]
	}
	return r
}

// packDot8F16 is packDotGroup's step for eight fp16 rows.
func packDot8F16(bp []float32, w int, r [gemmRowNR][]half.Float16) {
	r0 := r[0]
	r1, r2, r3, r4, r5, r6, r7 := r[1][:len(r0)], r[2][:len(r0)], r[3][:len(r0)], r[4][:len(r0)], r[5][:len(r0)], r[6][:len(r0)], r[7][:len(r0)]
	for kk := range r0 {
		d := (*[gemmRowNR]float32)(bp[kk*w:])
		d[0], d[1], d[2], d[3] = r0[kk].ToFloat32(), r1[kk].ToFloat32(), r2[kk].ToFloat32(), r3[kk].ToFloat32()
		d[4], d[5], d[6], d[7] = r4[kk].ToFloat32(), r5[kk].ToFloat32(), r6[kk].ToFloat32(), r7[kk].ToFloat32()
	}
}

// packDot8I8 is packDotGroup's step for eight int8 rows, each scaled by
// scale[row] (ScalePerRow).
func packDot8I8(bp []float32, w int, r [gemmRowNR][]int8, scale []float32, rows [gemmRowNR]int) {
	s := [gemmRowNR]float32{scale[rows[0]], scale[rows[1]], scale[rows[2]], scale[rows[3]], scale[rows[4]], scale[rows[5]], scale[rows[6]], scale[rows[7]]}
	r0 := r[0]
	r1, r2, r3, r4, r5, r6, r7 := r[1][:len(r0)], r[2][:len(r0)], r[3][:len(r0)], r[4][:len(r0)], r[5][:len(r0)], r[6][:len(r0)], r[7][:len(r0)]
	for kk := range r0 {
		d := (*[gemmRowNR]float32)(bp[kk*w:])
		d[0], d[1], d[2], d[3] = float32(r0[kk])*s[0], float32(r1[kk])*s[1], float32(r2[kk])*s[2], float32(r3[kk])*s[3]
		d[4], d[5], d[6], d[7] = float32(r4[kk])*s[4], float32(r5[kk])*s[5], float32(r6[kk])*s[6], float32(r7[kk])*s[7]
	}
}

// packDot8NM24 is packDotGroup's step for eight rows of a 2:4 matrix, kc
// columns from column k0 (both multiples of 4): it clears the eight lanes
// of each of the kc steps, then scatters each row's kept values into its
// lane.
func packDot8NM24(bp []float32, w int, p *PackedWeights, rows [gemmRowNR]int, k0, kc int) {
	for kk := 0; kk < kc; kk++ {
		clear(bp[kk*w : kk*w+gemmRowNR])
	}
	for t, j := range rows {
		o := (j*p.Cols + k0) / 2
		val, idx := p.NMVal[o:o+kc/2], p.NMIdx[o:o+kc/2]
		for s := 0; s+1 < len(val); s += 2 {
			g := bp[2*s*w+t:]
			g[int(idx[s]&3)*w] = val[s]
			g[int(idx[s+1]&3)*w] = val[s+1]
		}
	}
}

// GemmRangePacked computes c[i,:] += a[i,:]·B for rows i in [loM, hiM),
// where B is the packed matrix p viewed as [k,n] (p.Rows == k, p.Cols == n)
// and a: [m,k] is stored with row stride lda ≥ k, as in GemmRange.
// A single row (a one-stream decode step) reads B where it lies, widening
// each weight inside the row kernel; more rows widen B once per call into
// L1 panels swept by the dense gemmAxpy kernel. Either way each weight is
// widened to exactly the float32 Dequant produces, so the result is
// bit-identical to GemmRange over p.Dequant() (for WeightNM24, with finite
// a and a c holding no -0; see gemmRowNM24). WeightI8 requires
// ScalePerCol.
//
// The fused kernel exists for the one row, where widening one element at
// a time is the whole cost and the panel adds a store and a reload. Single
// thread, 2 GHz Xeon VM, decode/ab m1k256n64: 42 µs fused against 52 µs
// panel-then-gemmAxpy for f16, 27 against 31 µs for int8.
func GemmRangePacked(c, a []float32, p *PackedWeights, k, n, lda, loM, hiM int) {
	checkPacked(p, ScalePerCol, "GemmRangePacked")
	if hiM-loM == 1 {
		ai, ci := a[loM*lda:loM*lda+k], c[loM*n:(loM+1)*n]
		switch p.Format {
		case WeightF16:
			gemmRowF16(ci, ai, p.F16)
		case WeightI8:
			gemmRowI8(ci, ai, p.I8, p.Scale)
		default:
			gemmRowNM24(ci, ai, p)
		}
		return
	}
	if hiM <= loM {
		return
	}
	var panel [gemmKC * gemmNC]float32
	for k0 := 0; k0 < k; k0 += gemmKC {
		kc := min(gemmKC, k-k0)
		for j0 := 0; j0 < n; j0 += gemmNC {
			nc := min(gemmNC, n-j0)
			bp := panel[:kc*nc]
			switch p.Format {
			case WeightF16:
				widenPanelF16(bp, p.F16[k0*n+j0:], n, kc, nc)
			case WeightI8:
				widenPanelI8(bp, p.I8[k0*n+j0:], p.Scale[j0:], n, kc, nc)
			default:
				widenPanelNM24(bp, p, k0, j0, kc, nc)
			}
			gemmAxpy(c[loM*n+j0:], n, a[loM*lda+k0:], lda, 1, bp, nc, kc, nc, hiM-loM)
		}
	}
}

// gemmRowF16 computes ci += ai·b for an fp16 [k,n] matrix b read in
// place, gemmRowNR C columns held in registers and each weight widened in
// the load; zero ai elements are skipped as GemmRangeNaive skips them.
func gemmRowF16(ci, ai []float32, b []half.Float16) {
	n := len(ci)
	j := 0
	for ; j+gemmRowNR <= n; j += gemmRowNR {
		c0, c1, c2, c3, c4, c5, c6, c7 := ci[j], ci[j+1], ci[j+2], ci[j+3], ci[j+4], ci[j+5], ci[j+6], ci[j+7]
		for kk, av := range ai {
			if av == 0 {
				continue
			}
			bk := (*[gemmRowNR]half.Float16)(b[kk*n+j:])
			c0 += av * bk[0].ToFloat32()
			c1 += av * bk[1].ToFloat32()
			c2 += av * bk[2].ToFloat32()
			c3 += av * bk[3].ToFloat32()
			c4 += av * bk[4].ToFloat32()
			c5 += av * bk[5].ToFloat32()
			c6 += av * bk[6].ToFloat32()
			c7 += av * bk[7].ToFloat32()
		}
		ci[j], ci[j+1], ci[j+2], ci[j+3], ci[j+4], ci[j+5], ci[j+6], ci[j+7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
	for ; j < n; j++ {
		c0 := ci[j]
		for kk, av := range ai {
			if av == 0 {
				continue
			}
			c0 += av * b[kk*n+j].ToFloat32()
		}
		ci[j] = c0
	}
}

// gemmRowI8 is gemmRowF16 over an int8 [k,n] matrix with per-column
// scales, each weight widened in the load as Dequant widens it.
func gemmRowI8(ci, ai []float32, b []int8, scale []float32) {
	n := len(ci)
	j := 0
	for ; j+gemmRowNR <= n; j += gemmRowNR {
		s := (*[gemmRowNR]float32)(scale[j:])
		c0, c1, c2, c3, c4, c5, c6, c7 := ci[j], ci[j+1], ci[j+2], ci[j+3], ci[j+4], ci[j+5], ci[j+6], ci[j+7]
		for kk, av := range ai {
			if av == 0 {
				continue
			}
			bk := (*[gemmRowNR]int8)(b[kk*n+j:])
			c0 += av * (float32(bk[0]) * s[0])
			c1 += av * (float32(bk[1]) * s[1])
			c2 += av * (float32(bk[2]) * s[2])
			c3 += av * (float32(bk[3]) * s[3])
			c4 += av * (float32(bk[4]) * s[4])
			c5 += av * (float32(bk[5]) * s[5])
			c6 += av * (float32(bk[6]) * s[6])
			c7 += av * (float32(bk[7]) * s[7])
		}
		ci[j], ci[j+1], ci[j+2], ci[j+3], ci[j+4], ci[j+5], ci[j+6], ci[j+7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
	for ; j < n; j++ {
		c0, sj := ci[j], scale[j]
		for kk, av := range ai {
			if av == 0 {
				continue
			}
			c0 += av * (float32(b[kk*n+j]) * sj)
		}
		ci[j] = c0
	}
}

// The 2:4 one-row kernels below read only the kept entries. A pruned
// entry's term is a·0 = ±0 for finite a, and adding ±0 leaves every sum
// unchanged but -0, which a sum starting from +0 never reaches (x + y is
// -0 only when both are). So for finite a and a c holding no -0, both
// equal the f32 cores over Dequant bit for bit.

// gemmRowNM24 computes ci += ai·B for a 2:4 [k,n] matrix B read in place:
// for each nonzero ai[kk], kk ascending, the kept values of B's row kk
// scatter into ci, as GemmRangeNaive adds them.
func gemmRowNM24(ci, ai []float32, p *PackedWeights) {
	kept := len(ci) / 2 // per row of B
	for kk, av := range ai {
		if av == 0 {
			continue
		}
		val, idx := p.NMVal[kk*kept:(kk+1)*kept], p.NMIdx[kk*kept:(kk+1)*kept]
		for s := 0; s+1 < len(val); s += 2 {
			g := (*[4]float32)(ci[2*s:])
			g[idx[s]&3] += av * val[s]
			g[idx[s+1]&3] += av * val[s+1]
		}
	}
}

// gemmTBRowNM24 computes ci[j] += dot(ai, B[j,:]) for a 2:4 [n,k] matrix
// B read in place: one accumulator per output from +0 over B's kept
// entries, k ascending, four outputs at a time sharing each group of ai.
func gemmTBRowNM24(ci, ai []float32, p *PackedWeights) {
	kept := len(ai) / 2 // per row of B
	row := func(j int) ([]float32, []uint8) {
		return p.NMVal[j*kept : (j+1)*kept], p.NMIdx[j*kept : (j+1)*kept]
	}
	j := 0
	for ; j+4 <= len(ci); j += 4 {
		v0, i0 := row(j)
		v1, i1 := row(j + 1)
		v2, i2 := row(j + 2)
		v3, i3 := row(j + 3)
		v1, v2, v3, i1, i2, i3 = v1[:len(v0)], v2[:len(v0)], v3[:len(v0)], i1[:len(v0)], i2[:len(v0)], i3[:len(v0)]
		i0 = i0[:len(v0)]
		var s0, s1, s2, s3 float32
		for s := 0; s+1 < len(v0); s += 2 {
			g := (*[4]float32)(ai[2*s:])
			s0 += v0[s] * g[i0[s]&3]
			s0 += v0[s+1] * g[i0[s+1]&3]
			s1 += v1[s] * g[i1[s]&3]
			s1 += v1[s+1] * g[i1[s+1]&3]
			s2 += v2[s] * g[i2[s]&3]
			s2 += v2[s+1] * g[i2[s+1]&3]
			s3 += v3[s] * g[i3[s]&3]
			s3 += v3[s+1] * g[i3[s+1]&3]
		}
		ci[j] += s0
		ci[j+1] += s1
		ci[j+2] += s2
		ci[j+3] += s3
	}
	for ; j < len(ci); j++ {
		v, i := row(j)
		var s0 float32
		for s := 0; s+1 < len(v); s += 2 {
			g := (*[4]float32)(ai[2*s:])
			s0 += v[s] * g[i[s]&3]
			s0 += v[s+1] * g[i[s+1]&3]
		}
		ci[j] += s0
	}
}

// GemmTBRangePacked computes c[i,j] += dot(a[i,:], B[j,:]) (c += a·Bᵀ) for
// rows i in [loM, hiM), where B is p viewed as [n,k] (p.Rows == n, p.Cols ==
// k) and c is stored with row stride ldc ≥ n, as in GemmTBRange. It is
// GemmTBRange's dot driver with B's rows widened into each k-major group
// as the group is packed, to exactly the float32 Dequant produces; the
// gemmDot kernel then runs on them unchanged, at any row count and on
// every platform. Each output element is therefore one accumulator from
// +0, k ascending, added to c once: bit-identical to GemmTBRange over
// p.Dequant() at every k (TestGemmTBPacked). A single row of a WeightNM24
// matrix runs gemmTBRowNM24 instead, which reads half the entries the
// widened group holds. WeightI8 requires ScalePerRow.
func GemmTBRangePacked(c, a []float32, p *PackedWeights, k, n, ldc, loM, hiM int) {
	checkPacked(p, ScalePerRow, "GemmTBRangePacked")
	if p.Format == WeightNM24 && hiM-loM == 1 {
		gemmTBRowNM24(c[loM*ldc:loM*ldc+n], a[loM*k:(loM+1)*k], p)
		return
	}
	gemmTBRangeDot(c, a, nil, p, k, n, ldc, loM, hiM)
}

func checkPacked(p *PackedWeights, wantAxis int, op string) {
	switch p.Format {
	case WeightF16, WeightNM24:
	case WeightI8:
		if p.ScaleAxis != wantAxis {
			panic(fmt.Sprintf("tensor: %s needs int8 scale axis %d, packed with %d", op, wantAxis, p.ScaleAxis))
		}
	default:
		panic(fmt.Sprintf("tensor: %s on unpopulated PackedWeights (format %v)", op, p.Format))
	}
}

// MatMulPackedInto accumulates a·P into c (c += a·P) for a: [m,k] and P
// packed [k,n], in parallel — the packed counterpart of MatMulInto.
func MatMulPackedInto(c, a *Tensor, p *PackedWeights) {
	m, k := check2D(a, "a")
	cm, cn := check2D(c, "c")
	if k != p.Rows || cm != m || cn != p.Cols {
		panic(fmt.Sprintf("tensor: MatMulPackedInto shapes a%v P[%d %d] c%v", a.Shape(), p.Rows, p.Cols, c.Shape()))
	}
	parallel.ForBlockedArg(m, RowTile, gemmCall{c: c.Data, a: a.Data, k: k, n: p.Cols, m: m, p: p}, gemmPackedChunk)
}

// MatMulPackedIn returns a·P with the result taken from ws — the packed
// counterpart of MatMulIn.
func MatMulPackedIn(ws *Arena, a *Tensor, p *PackedWeights) *Tensor {
	c := ws.Get(a.Dim(0), p.Cols)
	MatMulPackedInto(c, a, p)
	return c
}

// MatMulTBPackedInto accumulates a·Pᵀ into c for a: [m,k] and P packed
// [n,k], in parallel — the packed counterpart of MatMulTBInto.
func MatMulTBPackedInto(c, a *Tensor, p *PackedWeights) {
	m, k := check2D(a, "a")
	cm, cn := check2D(c, "c")
	if k != p.Cols || cm != m || cn != p.Rows {
		panic(fmt.Sprintf("tensor: MatMulTBPackedInto shapes a%v P[%d %d] c%v", a.Shape(), p.Rows, p.Cols, c.Shape()))
	}
	parallel.ForBlockedArg(m, RowTile, gemmCall{c: c.Data, a: a.Data, k: k, n: p.Rows, m: m, p: p}, gemmTBPackedChunk)
}

// MatMulTBPackedIn returns a·Pᵀ with the result taken from ws.
func MatMulTBPackedIn(ws *Arena, a *Tensor, p *PackedWeights) *Tensor {
	c := ws.Get(a.Dim(0), p.Rows)
	MatMulTBPackedInto(c, a, p)
	return c
}
