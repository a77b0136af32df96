package tensor

import (
	"fmt"
	"testing"

	"longexposure/internal/parallel"
)

// kernelRow is one timed kernel call with the FLOPs and bytes one call
// declares. bytes counts every operand stream, the weights at their stored
// width, so MB/s compares precisions on the traffic they really move.
type kernelRow struct {
	name         string
	flops, bytes int64
	run          func()
}

// benchRows runs each row as a sub-benchmark of its own name, reporting
// MB/s from the declared bytes, GFLOP/s and allocations.
func benchRows(b *testing.B, rows []kernelRow) {
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			b.SetBytes(r.bytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.run()
			}
			b.ReportMetric(float64(r.flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// pinZeroAllocs asserts that every row allocates nothing, at one worker.
func pinZeroAllocs(t *testing.T, rows []kernelRow) {
	old := parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)
	for _, r := range rows {
		if n := testing.AllocsPerRun(1, r.run); n != 0 {
			t.Errorf("%s allocates %v/op, want 0", r.name, n)
		}
	}
}

// BenchmarkPrecision measures the reduced-precision weight pipeline
// against its f32 references:
//
//   - gemm/: GFLOP/s of the f16/int8 packed tiled GEMM against the f32
//     tiled core at n×n×n;
//   - decode/tb/ and decode/ab/: the decode step's two product
//     orientations at m = 1 and a small batched m, where weight streaming
//     dominates and the row kernels read the weights in place;
//   - prefill/: the m = 64 prompt shape, where the packed kernels reach
//     f32 ns/op at a fraction of the bytes.
//
// Run one thread, several times, to compare rows:
//
//	go test ./internal/tensor -run '^$' -bench 'Precision/decode/' -cpu 1 -count 5
func BenchmarkPrecision(b *testing.B) {
	sizes := []int{128, 256}
	if !testing.Short() {
		sizes = append(sizes, 512)
	}
	benchRows(b, precisionRows(sizes))
}

// TestKernelRowsDoNotAllocate pins every BenchmarkPrecision row and every
// BenchmarkGemmCores core at exactly zero allocations per call.
func TestKernelRowsDoNotAllocate(t *testing.T) {
	rows := precisionRows([]int{128, 256})
	for _, n := range []int{128, 256} {
		rows = append(rows, gemmCoreRows(n)...)
	}
	pinZeroAllocs(t, rows)
}

func precisionRows(sizes []int) []kernelRow {
	var rows []kernelRow
	for _, n := range sizes {
		rows = append(rows, packedGemmRows(n)...)
	}
	rows = append(rows, decodeTBRows(1024, 1024)...)
	rows = append(rows, decodeABRows(256, 64)...)
	rows = append(rows, decodeABRows(3072, 768)...)
	return append(rows, prefillRows(64, 1536, 1536)...)
}

// packedGemmRows compares the packed-storage GEMM cores against the f32
// tiled core at n×n×n: a, b and c streams, b at its stored width.
func packedGemmRows(n int) []kernelRow {
	r := NewRNG(uint64(n))
	a, b, c := New(n, n), New(n, n), New(n, n)
	r.FillNormal(a, 1)
	r.FillNormal(b, 1)
	f16 := PackF16(b)
	i8 := PackInt8(b, ScalePerCol)
	flops := 2 * int64(n) * int64(n) * int64(n)
	act := 4 * 2 * int64(n) * int64(n)
	return []kernelRow{
		{fmt.Sprintf("gemm/f32/tiled/%d", n), flops, act + 4*int64(n)*int64(n), func() {
			c.Zero()
			GemmRange(c.Data, a.Data, b.Data, n, n, n, 0, n)
		}},
		{fmt.Sprintf("gemm/f16/packed/%d", n), flops, act + f16.Bytes(), func() {
			c.Zero()
			GemmRangePacked(c.Data, a.Data, f16, n, n, 0, n)
		}},
		{fmt.Sprintf("gemm/int8/packed/%d", n), flops, act + i8.Bytes(), func() {
			c.Zero()
			GemmRangePacked(c.Data, a.Data, i8, n, n, 0, n)
		}},
	}
}

// tbRows is y = x·wᵀ over the [n → k] weight w at each m in ms, f32
// against its f16 and int8 packings, through the TB cores.
func tbRows(prefix string, x, y, w *Tensor, ms []int) []kernelRow {
	k, n := w.Shape()[1], w.Shape()[0]
	f16 := PackF16(w)
	i8 := PackInt8(w, ScalePerRow)
	var rows []kernelRow
	for _, m := range ms {
		flops := 2 * int64(m) * int64(k) * int64(n)
		act := 4 * int64(m) * int64(k+n) // x stream + y stream
		tag := fmt.Sprintf("m%dk%dn%d", m, k, n)
		rows = append(rows,
			kernelRow{prefix + "/f32/" + tag, flops, act + 4*int64(n)*int64(k), func() {
				y.Zero()
				GemmTBRange(y.Data, x.Data, w.Data, k, n, n, 0, m)
			}},
			kernelRow{prefix + "/f16/" + tag, flops, act + f16.Bytes(), func() {
				y.Zero()
				GemmTBRangePacked(y.Data, x.Data, f16, k, n, 0, m)
			}},
			kernelRow{prefix + "/int8/" + tag, flops, act + i8.Bytes(), func() {
				y.Zero()
				GemmTBRangePacked(y.Data, x.Data, i8, k, n, 0, m)
			}},
		)
	}
	return rows
}

// decodeTBRows is the decode step through the TB kernel at m = 1 and at
// m = 8 (one continuous-batching step). At m = 1 the per-panel widening is
// paid on every multiply-add; at m = 8 it amortizes across the batch.
func decodeTBRows(k, n int) []kernelRow {
	r := NewRNG(uint64(k + n))
	const mb = 8
	x, y, w := New(mb, k), New(mb, n), New(n, k)
	r.FillNormal(x, 1)
	r.FillNormal(w, 1)
	return tbRows("decode/tb", x, y, w, []int{1, mb})
}

// prefillRows is the prompt-shaped TB product, m tokens at once: the
// widening amortizes over all m output rows.
func prefillRows(m, k, n int) []kernelRow {
	r := NewRNG(uint64(m + k + n))
	x, y, w := New(m, k), New(m, n), New(n, k)
	r.FillNormal(x, 1)
	r.FillNormal(w, 1)
	return tbRows("prefill/tb", x, y, w, []int{m})
}

// decodeABRows is the decode step's other orientation, y += x·W with W
// stored [k → n] (FC2, the attention projections, LoRA, the LM head), at
// m = 1 and m = 4, through the row kernels that skip the panel pack at
// small m. It runs at the sim FC2 shape (256×64) and at OPT-125M's
// (3072×768, 9.4 MB of f32 weights, past L2).
func decodeABRows(k, n int) []kernelRow {
	r := NewRNG(uint64(k * n))
	const mb = 4
	x, y, w := New(mb, k), New(mb, n), New(k, n)
	r.FillNormal(x, 1)
	r.FillNormal(w, 1)
	f16 := PackF16(w)
	i8 := PackInt8(w, ScalePerCol)
	var rows []kernelRow
	for _, m := range []int{1, mb} {
		flops := 2 * int64(m) * int64(k) * int64(n)
		act := 4 * int64(m) * int64(k+n)
		tag := fmt.Sprintf("m%dk%dn%d", m, k, n)
		rows = append(rows,
			kernelRow{"decode/ab/f32/" + tag, flops, act + 4*int64(k)*int64(n), func() {
				y.Zero()
				GemmRange(y.Data, x.Data, w.Data, k, n, k, 0, m)
			}},
			kernelRow{"decode/ab/f16/" + tag, flops, act + f16.Bytes(), func() {
				y.Zero()
				GemmRangePacked(y.Data, x.Data, f16, k, n, 0, m)
			}},
			kernelRow{"decode/ab/int8/" + tag, flops, act + i8.Bytes(), func() {
				y.Zero()
				GemmRangePacked(y.Data, x.Data, i8, k, n, 0, m)
			}},
		)
	}
	return rows
}
