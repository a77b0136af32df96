// Package tensor implements the dense numeric substrate: contiguous
// row-major float32 tensors and the parallel CPU kernels (blocked matrix
// multiplication, elementwise maps, reductions, softmax) that the training
// engine and the sparse operators are built on.
//
// Tensors are deliberately simple — shape plus flat storage, no strides or
// views with gaps — because every kernel in this repository works on
// contiguous row-major data, exactly like the GPU kernels in the paper.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a contiguous row-major float32 tensor.
type Tensor struct {
	shape []int
	Data  []float32
}

// New allocates a zero-filled tensor with the given shape.
// A zero-dimensional tensor (no shape arguments) holds a single scalar.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data (not copied) in a tensor of the given shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: data}
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Reshape returns a tensor sharing t's storage with a new shape of the same
// total size. A single -1 dimension is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	infer := -1
	out := append([]int(nil), shape...)
	for i, d := range out {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dimensions in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		out[infer] = len(t.Data) / n
		n *= out[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.shape, len(t.Data), shape))
	}
	return &Tensor{shape: out, Data: t.Data}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal total size.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(src.Data) != len(t.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", src.shape, t.shape))
	}
	copy(t.Data, src.Data)
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	clear(t.Data)
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Row returns the i-th row of a rank-2 tensor as a slice sharing storage.
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on rank-%d tensor", len(t.shape)))
	}
	n := t.shape[1]
	return t.Data[i*n : (i+1)*n]
}

// MaxAbsDiff returns the largest absolute elementwise difference between two
// tensors of equal size — the workhorse of numeric equivalence tests.
func MaxAbsDiff(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: MaxAbsDiff size mismatch")
	}
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}

// String renders a compact description (shape plus a few leading values).
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.Data[:n])
}
