package tensor

import (
	"fmt"
	"testing"

	"longexposure/internal/parallel"
)

// Kernel microbenchmarks, including worker-count scaling — the CPU analogue
// of GPU occupancy tuning for the parallel GEMM cores.

func benchMatMul(b *testing.B, n int) {
	r := NewRNG(1)
	a := New(n, n)
	c := New(n, n)
	r.FillNormal(a, 1)
	r.FillNormal(c, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, c)
	}
	b.SetBytes(int64(8 * n * n))
}

func BenchmarkMatMul64(b *testing.B)  { benchMatMul(b, 64) }
func BenchmarkMatMul128(b *testing.B) { benchMatMul(b, 128) }
func BenchmarkMatMul256(b *testing.B) { benchMatMul(b, 256) }

func BenchmarkMatMulWorkerScaling(b *testing.B) {
	n := 192
	r := NewRNG(2)
	x := New(n, n)
	y := New(n, n)
	r.FillNormal(x, 1)
	r.FillNormal(y, 1)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			old := parallel.SetWorkers(w)
			defer parallel.SetWorkers(old)
			for i := 0; i < b.N; i++ {
				MatMul(x, y)
			}
		})
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	r := NewRNG(3)
	base := New(256, 256)
	r.FillNormal(base, 1)
	scratch := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.CopyFrom(base)
		for r := 0; r < 256; r++ {
			SoftmaxRow(scratch.Row(r))
		}
	}
}

func BenchmarkGeLU(b *testing.B) {
	r := NewRNG(4)
	base := New(64, 1024)
	r.FillNormal(base, 1)
	scratch := New(64, 1024)
	ws := NewArena()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch.CopyFrom(base)
		GeLUIn(ws, scratch)
		ws.Release()
	}
}
