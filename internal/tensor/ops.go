package tensor

import (
	"fmt"
	"math"

	"longexposure/internal/parallel"
)

// AddInto computes dst[i] += src[i].
func AddInto(dst, src *Tensor) {
	if len(dst.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: AddInto size mismatch %v vs %v", dst.Shape(), src.Shape()))
	}
	d, s := dst.Data, src.Data
	for i := range d {
		d[i] += s[i]
	}
}

// AddScaledInto computes dst[i] += alpha*src[i] (axpy).
func AddScaledInto(dst, src *Tensor, alpha float32) {
	if len(dst.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: AddScaledInto size mismatch %v vs %v", dst.Shape(), src.Shape()))
	}
	d, s := dst.Data, src.Data
	for i := range d {
		d[i] += alpha * s[i]
	}
}

// Scale multiplies every element by alpha in place.
func Scale(t *Tensor, alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// MulInto computes dst[i] *= src[i] (Hadamard product).
func MulInto(dst, src *Tensor) {
	if len(dst.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: MulInto size mismatch %v vs %v", dst.Shape(), src.Shape()))
	}
	d, s := dst.Data, src.Data
	for i := range d {
		d[i] *= s[i]
	}
}

// Fan-out grains of the elementwise kernels: no worker receives fewer rows
// or elements than this, so a decode step's few-row bias add or activation
// runs on the calling goroutine rather than spawning (and allocating) a
// goroutine per worker. Each row and element is computed independently, so
// results do not depend on the split.
const (
	opRowGrain     = 8
	opElementGrain = 4096
)

// rowVecArgs / addRowVectorChunk: static kernel body for AddRowVector so
// the hot bias-add never allocates a closure (see parallel.ForChunkedArg).
// SoftmaxRows reuses the struct with v unset.
type rowVecArgs struct {
	data, v []float32
	n       int
}

func addRowVectorChunk(a rowVecArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := a.data[i*a.n : (i+1)*a.n]
		for j := range row {
			row[j] += a.v[j]
		}
	}
}

// AddRowVector adds vector v (length n) to every row of a [m,n] tensor —
// the bias-add kernel.
func AddRowVector(t *Tensor, v []float32) {
	m, n := check2D(t, "t")
	if len(v) != n {
		panic(fmt.Sprintf("tensor: AddRowVector length %d vs cols %d", len(v), n))
	}
	parallel.ForBlockedArg(m, opRowGrain, rowVecArgs{t.Data, v, n}, addRowVectorChunk)
}

// Sum returns the sum of all elements (deterministic parallel reduction).
func Sum(t *Tensor) float64 {
	d := t.Data
	return parallel.ReduceFloat64Arg(len(d), d, func(d []float32, i int) float64 { return float64(d[i]) })
}

// Mean returns the arithmetic mean of all elements.
func Mean(t *Tensor) float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return Sum(t) / float64(len(t.Data))
}

// Max returns the maximum element. It panics on an empty tensor.
func Max(t *Tensor) float32 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgmaxRow returns the index of the maximum value in row i of a rank-2
// tensor — the greedy-decoding / classification kernel.
func ArgmaxRow(t *Tensor, i int) int {
	row := t.Row(i)
	best, bi := row[0], 0
	for j, v := range row[1:] {
		if v > best {
			best, bi = v, j+1
		}
	}
	return bi
}

// ReLURange applies max(0, x) to dst[lo:hi] and records the activation mask
// (1 where active) into mask if non-nil. The mask is what the backward pass
// and the shadowy-sparsity measurements consume.
func ReLURange(dst, mask []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		if dst[i] > 0 {
			if mask != nil {
				mask[i] = 1
			}
		} else {
			dst[i] = 0
			if mask != nil {
				mask[i] = 0
			}
		}
	}
}

// ReLU applies the rectifier in place, in parallel, returning the 0/1
// activation mask when wantMask is set.
func ReLU(t *Tensor, wantMask bool) *Tensor {
	return ReLUIn(nil, t, wantMask)
}

// ReLUIn is ReLU with the mask taken from ws (allocated when ws is nil).
func ReLUIn(ws *Arena, t *Tensor, wantMask bool) *Tensor {
	var mask *Tensor
	var md []float32
	if wantMask {
		mask = NewIn(ws, t.Shape()...)
		md = mask.Data
	}
	d := t.Data
	parallel.ForBlockedArg(len(d), opElementGrain, reluArgs{d, md}, reluChunk)
	return mask
}

type reluArgs struct{ d, mask []float32 }

func reluChunk(a reluArgs, lo, hi int) { ReLURange(a.d, a.mask, lo, hi) }

// GeLU applies the Gaussian error linear unit (tanh approximation) in place
// and returns the pre-activation copy needed for backward.
func GeLU(t *Tensor) *Tensor {
	return GeLUIn(nil, t)
}

// GeLUIn is GeLU with the pre-activation copy taken from ws.
func GeLUIn(ws *Arena, t *Tensor) *Tensor {
	pre := CloneIn(ws, t)
	parallel.ForBlockedArg(len(t.Data), opElementGrain, t.Data, geluChunk)
	return pre
}

func geluChunk(d []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		x := float64(d[i])
		d[i] = float32(0.5 * x * (1 + math.Tanh(0.7978845608028654*(x+0.044715*x*x*x))))
	}
}

// GeLUGradRange computes dx[i] += dy[i] * gelu'(pre[i]) over [lo, hi).
func GeLUGradRange(dx, dy, pre []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		x := float64(pre[i])
		t := math.Tanh(0.7978845608028654 * (x + 0.044715*x*x*x))
		dt := (1 - t*t) * 0.7978845608028654 * (1 + 3*0.044715*x*x)
		dx[i] += dy[i] * float32(0.5*(1+t)+0.5*x*dt)
	}
}

// SoftmaxRows applies a numerically-stable softmax independently to each row
// of a [rows, cols] tensor, in place. Entries equal to NegInf are treated as
// masked: they receive probability zero and a fully-masked row becomes all
// zeros rather than NaN.
func SoftmaxRows(t *Tensor) {
	rows, cols := check2D(t, "t")
	parallel.ForChunkedArg(rows, rowVecArgs{data: t.Data, n: cols}, softmaxRowsChunk)
}

func softmaxRowsChunk(a rowVecArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		SoftmaxRow(a.data[i*a.n : (i+1)*a.n])
	}
}

// NegInf is the mask value for softmax: scores set to NegInf are excluded.
var NegInf = float32(math.Inf(-1))

// SoftmaxRow applies the stable softmax to a single row in place, honouring
// NegInf masking.
func SoftmaxRow(row []float32) {
	maxV := NegInf
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == NegInf { // fully masked row
		clear(row)
		return
	}
	var sum float64
	for i, v := range row {
		if v == NegInf {
			row[i] = 0
			continue
		}
		e := math.Exp(float64(v - maxV))
		row[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range row {
		row[i] *= inv
	}
}

// SoftmaxBackwardRow computes dscore from dprob for one softmax row:
// dscore_j = p_j * (dprob_j - Σ_k p_k dprob_k), written into dst (+=).
func SoftmaxBackwardRow(dst, p, dprob []float32) {
	var dot float64
	for k := range p {
		dot += float64(p[k]) * float64(dprob[k])
	}
	for j := range p {
		dst[j] += p[j] * (dprob[j] - float32(dot))
	}
}

// L2Norm returns the Euclidean norm of the tensor.
func L2Norm(t *Tensor) float64 {
	d := t.Data
	s := parallel.ReduceFloat64Arg(len(d), d, func(d []float32, i int) float64 { return float64(d[i]) * float64(d[i]) })
	return math.Sqrt(s)
}

// Clamp limits every element to [lo, hi] in place.
func Clamp(t *Tensor, lo, hi float32) {
	for i, v := range t.Data {
		if v < lo {
			t.Data[i] = lo
		} else if v > hi {
			t.Data[i] = hi
		}
	}
}
