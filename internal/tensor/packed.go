package tensor

import (
	"fmt"
	"math"

	"longexposure/internal/half"
	"longexposure/internal/parallel"
)

// Reduced-precision weight storage for the frozen base. The paper stores
// parameters in fp16 and computes in fp32 (§VII-A); on CPU the win is not
// arithmetic but bytes: a packed matrix streams half (fp16) or a quarter
// (int8) of the weight bytes of the f32 path. A multi-row product widens to
// f32 once per L1 panel at pack time — amortized over every output row of
// the range — and runs the dense micro-kernels from gemm_tiled.go
// unchanged. A single row (a one-stream decode step) would sweep each
// panel once, so it skips the panel and widens each weight inside the row
// kernel instead (gemmRowF16/gemmRowI8). Either way every weight is widened
// to exactly the f32 value Dequant produces, so the packed product is
// bit-identical to the f32 product over the dequantized matrix
// (TestGemmPackedBitIdentical pins this). Packed weights are read-only by
// construction: there is no gradient path, which is exactly the
// frozen-base contract PEFT serving relies on.

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
)

func (f WeightFormat) String() string {
	switch f {
	case WeightF16:
		return "f16"
	case WeightI8:
		return "int8"
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

// PackedWeights is a read-only weight matrix in reduced-precision storage,
// logically row-major [Rows][Cols]. Exactly one of F16/I8 is populated.
type PackedWeights struct {
	Rows, Cols int
	Format     WeightFormat

	F16 []half.Float16 // WeightF16: Rows*Cols fp16 bit patterns

	I8        []int8    // WeightI8: Rows*Cols quantized values
	Scale     []float32 // WeightI8: per-channel dequant scales
	ScaleAxis int       // WeightI8: ScalePerRow or ScalePerCol
}

// Bytes reports the resident storage footprint of the packed matrix.
func (p *PackedWeights) Bytes() int64 {
	switch p.Format {
	case WeightF16:
		return half.Bytes(len(p.F16))
	case WeightI8:
		return int64(len(p.I8)) + 4*int64(len(p.Scale))
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
// channel gets scale 0 and dequantizes to exact zeros.
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
	default:
		panic(fmt.Sprintf("tensor: Dequant of unpopulated PackedWeights (format %v)", p.Format))
	}
	return t
}

// The widening pack routines below are the packPanelT counterparts for
// reduced-precision storage: same transposed column-stream layout, same
// 32 KiB L1 write region, with the element conversion folded into the copy.
// After packing, the panel is plain f32 and the dense micro-kernels run
// unchanged — the conversion cost is O(k·n) per call regardless of how many
// output rows amortize it, which is why a single row skips the pack.

// packPanelTF16 packs b[k0:k0+kc, j0:j0+nc] of an fp16 [k,n] matrix,
// transposed and widened.
func packPanelTF16(packed []float32, b []half.Float16, n, k0, j0, kc, nc int) {
	for kk := 0; kk < kc; kk++ {
		src := b[(k0+kk)*n+j0 : (k0+kk)*n+j0+nc]
		for j, v := range src {
			packed[j*kc+kk] = v.ToFloat32()
		}
	}
}

// packPanelTI8 packs the same region of an int8 [k,n] matrix with
// per-column scales (ScalePerCol layout).
func packPanelTI8(packed []float32, b []int8, scale []float32, n, k0, j0, kc, nc int) {
	for kk := 0; kk < kc; kk++ {
		src := b[(k0+kk)*n+j0 : (k0+kk)*n+j0+nc]
		for j, v := range src {
			packed[j*kc+kk] = float32(v) * scale[j0+j]
		}
	}
}

// packRowsF16 packs rows j0..j0+nc of an fp16 [n,k] matrix, slice
// [k0:k0+kc], widened — rows are already the dot streams of the TB kernel,
// so the copy is stride-1 on both sides.
func packRowsF16(packed []float32, b []half.Float16, k, k0, j0, kc, nc int) {
	for r := 0; r < nc; r++ {
		src := b[(j0+r)*k+k0 : (j0+r)*k+k0+kc]
		dst := packed[r*kc : (r+1)*kc]
		for t, v := range src {
			dst[t] = v.ToFloat32()
		}
	}
}

// packRowsI8 packs the same region of an int8 [n,k] matrix with per-row
// scales (ScalePerRow layout) — the scale is loop-invariant per stream.
func packRowsI8(packed []float32, b []int8, scale []float32, k, k0, j0, kc, nc int) {
	for r := 0; r < nc; r++ {
		src := b[(j0+r)*k+k0 : (j0+r)*k+k0+kc]
		dst := packed[r*kc : (r+1)*kc]
		s := scale[j0+r]
		for t, v := range src {
			dst[t] = float32(v) * s
		}
	}
}

// GemmRangePacked computes c[i,:] += a[i,:]·B for rows i in [loM, hiM),
// where B is the packed matrix p viewed as [k,n] (p.Rows == k, p.Cols == n).
// A single row (a one-stream decode step) reads B where it lies, widening
// each weight inside the row kernel; more rows widen B once per call into
// L1 panels swept by the dense micro-kernels. Either way each weight is
// widened to exactly the float32 Dequant produces, so the result is
// bit-identical to GemmRange over p.Dequant(). WeightI8 requires
// ScalePerCol.
//
// The fused kernel widens every weight once per row, the panel pack once
// per call, so it pays only for one row. Single thread on an Intel Xeon VM
// at k=256, n=64 (kernels_precision decode/ab rows): one row takes 15 µs
// fused against 28–31 µs packed for int8 and 23 against 31–33 µs for f16;
// at two rows of f16 the pack already wins (k=n=64: 12 vs 10 µs), and at
// four rows both formats take about twice as long fused.
func GemmRangePacked(c, a []float32, p *PackedWeights, k, n, loM, hiM int) {
	if hiM-loM == 1 {
		ai, ci := a[loM*k:(loM+1)*k], c[loM*n:(loM+1)*n]
		if p.Format == WeightF16 {
			gemmRowF16(ci, ai, p.F16)
		} else {
			gemmRowI8(ci, ai, p.I8, p.Scale)
		}
		return
	}
	var packed [gemmKC * gemmNC]float32
	for k0 := 0; k0 < k; k0 += gemmKC {
		kc := min(gemmKC, k-k0)
		for j0 := 0; j0 < n; j0 += gemmNC {
			nc := min(gemmNC, n-j0)
			if p.Format == WeightF16 {
				packPanelTF16(packed[:], p.F16, n, k0, j0, kc, nc)
			} else {
				packPanelTI8(packed[:], p.I8, p.Scale, n, k0, j0, kc, nc)
			}
			for i := loM; i < hiM; i++ {
				gemmMicroRowDispatch(c[i*n+j0:i*n+j0+nc], a[i*k+k0:i*k+k0+kc], packed[:nc*kc])
			}
		}
	}
}

// gemmRowF16 is gemmRow over an fp16 [k,n] matrix, each weight widened in
// the load.
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

// gemmRowI8 is gemmRow over an int8 [k,n] matrix with per-column
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

// GemmTBRangePacked computes c[i,j] += dot(a[i,:], B[j,:]) (c += a·Bᵀ) for
// rows i in [loM, hiM), where B is p viewed as [n,k] (p.Rows == n, p.Cols ==
// k). B's rows are already the TB dot streams, so four rows at a time are
// widened into an L1-resident buffer over the full contraction (chunked at
// 2048 when k exceeds the buffer) and swept by every output row before the
// next quad — c is touched once per chunk and the per-element widening cost
// amortizes over hiM-loM output rows, which is what pulls the packed TB
// path toward f32 parity as the batch grows. Bit-identical to GemmTBRange
// over p.Dequant() for k ≤ 2048 (same 4-wide stripe, one accumulator per
// output element, k ascending); past that the per-chunk partial sums are
// added to c in chunk order. TestGemmTBPacked pins the contract. WeightI8
// requires ScalePerRow.
func GemmTBRangePacked(c, a []float32, p *PackedWeights, k, n, loM, hiM int) {
	const kChunk = 2048
	var wbuf [gemmNR * kChunk]float32
	for k0 := 0; k0 < k; k0 += kChunk {
		kc := min(kChunk, k-k0)
		jFull := n - n%gemmNR
		for j := 0; j < jFull; j += gemmNR {
			if p.Format == WeightF16 {
				packRowsF16(wbuf[:], p.F16, k, k0, j, kc, gemmNR)
			} else {
				packRowsI8(wbuf[:], p.I8, p.Scale, k, k0, j, kc, gemmNR)
			}
			w0 := wbuf[0*kc:][:kc]
			w1 := wbuf[1*kc:][:kc]
			w2 := wbuf[2*kc:][:kc]
			w3 := wbuf[3*kc:][:kc]
			for i := loM; i < hiM; i++ {
				ai := a[i*k+k0:][:kc]
				var s0, s1, s2, s3 float32
				for kk, av := range ai {
					s0 += av * w0[kk]
					s1 += av * w1[kk]
					s2 += av * w2[kk]
					s3 += av * w3[kk]
				}
				ci := c[i*n+j : i*n+j+4]
				ci[0] += s0
				ci[1] += s1
				ci[2] += s2
				ci[3] += s3
			}
		}
		for j := jFull; j < n; j++ {
			if p.Format == WeightF16 {
				packRowsF16(wbuf[:], p.F16, k, k0, j, kc, 1)
			} else {
				packRowsI8(wbuf[:], p.I8, p.Scale, k, k0, j, kc, 1)
			}
			wj := wbuf[:kc]
			for i := loM; i < hiM; i++ {
				ai := a[i*k+k0:][:kc]
				var s float32
				for kk, av := range ai {
					s += av * wj[kk]
				}
				c[i*n+j] += s
			}
		}
	}
}

// gemmPackedCall mirrors gemmCall for the packed drivers: static chunk
// functions, no closures on the single-worker fast path.
type gemmPackedCall struct {
	c, a []float32
	p    *PackedWeights
	k, n int
}

func gemmRangePackedChunk(g gemmPackedCall, lo, hi int) {
	GemmRangePacked(g.c, g.a, g.p, g.k, g.n, lo, hi)
}

func gemmTBRangePackedChunk(g gemmPackedCall, lo, hi int) {
	GemmTBRangePacked(g.c, g.a, g.p, g.k, g.n, lo, hi)
}

func checkPacked(p *PackedWeights, wantAxis int, op string) {
	switch p.Format {
	case WeightF16:
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
	checkPacked(p, ScalePerCol, "MatMulPackedInto")
	parallel.ForBlockedArg(m, matmulRowTile, gemmPackedCall{c.Data, a.Data, p, k, p.Cols}, gemmRangePackedChunk)
}

// MatMulPackedIn returns a·P with the result taken from ws (allocating when
// ws is nil) — the packed counterpart of MatMulIn.
func MatMulPackedIn(ws *Arena, a *Tensor, p *PackedWeights) *Tensor {
	c := NewIn(ws, a.Dim(0), p.Cols)
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
	checkPacked(p, ScalePerRow, "MatMulTBPackedInto")
	parallel.ForBlockedArg(m, matmulRowTile, gemmPackedCall{c.Data, a.Data, p, k, p.Rows}, gemmTBRangePackedChunk)
}

// MatMulTBPackedIn returns a·Pᵀ with the result taken from ws.
func MatMulTBPackedIn(ws *Arena, a *Tensor, p *PackedWeights) *Tensor {
	c := NewIn(ws, a.Dim(0), p.Rows)
	MatMulTBPackedInto(c, a, p)
	return c
}
