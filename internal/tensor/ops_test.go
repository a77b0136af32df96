package tensor

import (
	"math"
	"testing"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := NewRNG(10)
	a := randTensor(r, 5, 9)
	for i := 0; i < 5; i++ {
		SoftmaxRow(a.Row(i))
		var s float64
		for _, v := range a.Row(i) {
			if v < 0 {
				t.Fatal("negative probability")
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxMasking(t *testing.T) {
	row := []float32{1, NegInf, 2, NegInf}
	SoftmaxRow(row)
	if row[1] != 0 || row[3] != 0 {
		t.Fatalf("masked entries got probability: %v", row)
	}
	if math.Abs(float64(row[0]+row[2])-1) > 1e-5 {
		t.Fatalf("unmasked entries don't sum to 1: %v", row)
	}
}

func TestSoftmaxFullyMaskedRowIsZero(t *testing.T) {
	row := []float32{NegInf, NegInf, NegInf}
	SoftmaxRow(row)
	for _, v := range row {
		if v != 0 {
			t.Fatalf("fully masked row = %v", row)
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{101, 102, 103}
	SoftmaxRow(a)
	SoftmaxRow(b)
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-5 {
			t.Fatalf("softmax not shift invariant: %v vs %v", a, b)
		}
	}
}

func TestReLUMask(t *testing.T) {
	a := FromSlice([]float32{-1, 0, 2, -3, 4}, 5)
	mask := ReLUIn(NewArena(), a, true)
	wantData := []float32{0, 0, 2, 0, 4}
	wantMask := []float32{0, 0, 1, 0, 1}
	for i := range wantData {
		if a.Data[i] != wantData[i] {
			t.Fatalf("ReLU data[%d] = %v", i, a.Data[i])
		}
		if mask.Data[i] != wantMask[i] {
			t.Fatalf("ReLU mask[%d] = %v", i, mask.Data[i])
		}
	}
}

// TestReLUEdgeValues pins ReLURange's outputs bit for bit on the values a
// sign or NaN test could get wrong: everything not > 0 (NaN of either
// sign, -0, negatives, -Inf) becomes +0 with mask 0; every positive value,
// the smallest denormal and +Inf included, is kept with mask exactly 1.
func TestReLUEdgeValues(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := func(b uint32) float32 { return math.Float32frombits(b) }
	in := []float32{float32(math.NaN()), nan(0x7f800001), nan(0x7fffffff), nan(0xffc00000), nan(0xff800001),
		float32(math.Copysign(0, -1)), 0, -1, -inf,
		-math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32, 1, math.MaxFloat32, inf, 0.5}
	for _, withMask := range []bool{true, false} {
		d := append([]float32(nil), in...)
		var mask []float32
		if withMask {
			mask = make([]float32, len(d))
			for i := range mask {
				mask[i] = 7 // every element must be written
			}
		}
		ReLURange(d, mask, 0, len(d))
		for i, v := range in {
			want, wantMask := float32(0), float32(0)
			if v > 0 {
				want, wantMask = v, 1
			}
			if math.Float32bits(d[i]) != math.Float32bits(want) {
				t.Fatalf("ReLU(%v) = %v (bits %#x), want %v", v, d[i], math.Float32bits(d[i]), want)
			}
			if withMask && math.Float32bits(mask[i]) != math.Float32bits(wantMask) {
				t.Fatalf("ReLU mask for %v = %v, want %v", v, mask[i], wantMask)
			}
		}
	}
}

func TestGeLUGradMatchesNumeric(t *testing.T) {
	xs := []float32{-2, -0.5, 0, 0.5, 2}
	ws := NewArena()
	for _, x0 := range xs {
		a := FromSlice([]float32{x0}, 1)
		pre := GeLUIn(ws, a)
		dy := []float32{1}
		dx := make([]float32, 1)
		GeLUGradRange(dx, dy, pre.Data, 0, 1)

		const eps = 1e-3
		p := FromSlice([]float32{x0 + eps}, 1)
		m := FromSlice([]float32{x0 - eps}, 1)
		GeLUIn(ws, p)
		GeLUIn(ws, m)
		num := (float64(p.Data[0]) - float64(m.Data[0])) / (2 * eps)
		if math.Abs(num-float64(dx[0])) > 1e-3 {
			t.Fatalf("gelu'(%v): numeric %v vs analytic %v", x0, num, dx[0])
		}
	}
}

func TestAddRowVector(t *testing.T) {
	a := New(2, 3)
	AddRowVector(a, []float32{1, 2, 3})
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != float32(j+1) {
				t.Fatalf("a[%d,%d] = %v", i, j, a.At(i, j))
			}
		}
	}
}

func TestSumMeanMax(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 4)
	if Sum(a) != 10 {
		t.Fatalf("Sum = %v", Sum(a))
	}
	if Mean(a) != 2.5 {
		t.Fatalf("Mean = %v", Mean(a))
	}
	if Max(a) != 4 {
		t.Fatalf("Max = %v", Max(a))
	}
}

func TestArgmaxRow(t *testing.T) {
	a := FromSlice([]float32{1, 5, 3, 9, 2, 4}, 2, 3)
	if ArgmaxRow(a, 0) != 1 || ArgmaxRow(a, 1) != 0 {
		t.Fatal("ArgmaxRow wrong")
	}
}

func TestAddScaledInto(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{10, 20}, 2)
	AddScaledInto(a, b, 0.5)
	if a.Data[0] != 6 || a.Data[1] != 12 {
		t.Fatalf("axpy wrong: %v", a.Data)
	}
}

func TestClamp(t *testing.T) {
	a := FromSlice([]float32{-5, 0.5, 5}, 3)
	Clamp(a, -1, 1)
	if a.Data[0] != -1 || a.Data[1] != 0.5 || a.Data[2] != 1 {
		t.Fatalf("Clamp wrong: %v", a.Data)
	}
}

func TestL2Norm(t *testing.T) {
	a := FromSlice([]float32{3, 4}, 2)
	if math.Abs(L2Norm(a)-5) > 1e-9 {
		t.Fatalf("L2Norm = %v", L2Norm(a))
	}
}

func TestMulInto(t *testing.T) {
	a := FromSlice([]float32{2, 3}, 2)
	b := FromSlice([]float32{4, 5}, 2)
	MulInto(a, b)
	if a.Data[0] != 8 || a.Data[1] != 15 {
		t.Fatalf("MulInto wrong: %v", a.Data)
	}
}
