package nn

import (
	"math"
	"strings"
	"testing"

	"longexposure/internal/tensor"
)

// compressedPair builds two identically-seeded models and compresses one.
func compressedPair(t *testing.T, precision string) (f32, comp *Transformer) {
	t.Helper()
	f32 = NewTransformer(tinyConfig(), tensor.NewRNG(99))
	comp = NewTransformer(tinyConfig(), tensor.NewRNG(99))
	if err := comp.Compress(precision); err != nil {
		t.Fatal(err)
	}
	return f32, comp
}

// TestCompressDecodeTolerance: the cached decode path through each
// compressed storage format stays within a small logit tolerance of the f32
// base, and greedy decoding agrees on this model (quantization noise far
// below the logit margins of a deterministic tiny model).
func TestCompressDecodeTolerance(t *testing.T) {
	prompt := []int{2, 5, 3, 7}
	for _, tc := range []struct {
		precision string
		tol       float64
		greedy    bool // argmax must survive quantization
	}{
		{PrecisionF16, 1e-2, true},
		{PrecisionI8, 0.1, true},
		// 2:4 prunes half the MLP weights of an untrained random model:
		// logits stay in the neighbourhood, the argmax has no margin to
		// survive on.
		{PrecisionNM24, 1.5, false},
	} {
		f32m, comp := compressedPair(t, tc.precision)
		cacheA, cacheB := f32m.NewKVCache(), comp.NewKVCache()
		la := f32m.DecodeStepCfg(cacheA, prompt, DecodeStepConfig{})
		lb := comp.DecodeStepCfg(cacheB, prompt, DecodeStepConfig{})
		var maxd float64
		for i := range la.Data {
			if d := math.Abs(float64(la.Data[i] - lb.Data[i])); d > maxd {
				maxd = d
			}
		}
		if maxd > tc.tol {
			t.Fatalf("%s: max logit diff %g exceeds %g", tc.precision, maxd, tc.tol)
		}
		if a, b := SampleToken(la.Row(0), 0, nil), SampleToken(lb.Row(0), 0, nil); tc.greedy && a != b {
			t.Fatalf("%s: greedy token diverged: %d vs %d", tc.precision, a, b)
		}
	}
}

// TestCompressForwardMatchesDecode: the batch Forward path of a compressed
// model dispatches through the same packed kernels as decode — the two must
// produce bit-identical logits for the same prefix (the decode-parity
// contract, unchanged by compression). The prompt's head is prefilled in
// one step and its tail decoded one token at a time, so a one-row kernel
// meets Forward's multi-row kernels at every tail position.
func TestCompressForwardMatchesDecode(t *testing.T) {
	for _, precision := range []string{PrecisionF16, PrecisionI8, PrecisionNM24} {
		_, comp := compressedPair(t, precision)
		prompt := []int{2, 5, 3, 7, 11, 1, 16, 4, 9}
		const head = 4
		fwd := comp.Forward([][]int{prompt}, nil, tensor.NewArena())
		cache := comp.NewKVCache()
		dec := comp.DecodeStepCfg(cache, prompt[:head], DecodeStepConfig{})
		for pos := head - 1; ; pos++ {
			want := fwd.Row(pos)
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(dec.Data[i]) {
					t.Fatalf("%s: forward/decode diverge at position %d, logit %d: %g vs %g",
						precision, pos, i, want[i], dec.Data[i])
				}
			}
			if pos+1 == len(prompt) {
				break
			}
			dec = comp.DecodeStepCfg(cache, prompt[pos+1:pos+2], DecodeStepConfig{})
		}
	}
}

// TestCompressFreesStorage pins the footprint story: compression must
// actually shrink resident weight bytes (f16 roughly halves the big
// matrices, int8 roughly quarters them) and null out the f32 buffers.
func TestCompressFreesStorage(t *testing.T) {
	f32m, f16m := compressedPair(t, PrecisionF16)
	_, i8m := compressedPair(t, PrecisionI8)
	full, hb, qb := f32m.WeightBytes(), f16m.WeightBytes(), i8m.WeightBytes()
	if hb >= full || qb >= hb {
		t.Fatalf("weight bytes not shrinking: f32=%d f16=%d int8=%d", full, hb, qb)
	}
	if !f16m.Compressed() || f32m.Compressed() {
		t.Fatal("Compressed() flag wrong")
	}
	if f16m.Blocks[0].Attn.Wq.W.W.Data != nil || f16m.Blocks[0].MLP.W1.W.Data != nil {
		t.Fatal("f32 storage not freed")
	}
	if !f16m.Blocks[0].MLP.W1.Frozen {
		t.Fatal("compressed parameter not frozen")
	}
}

// TestCompressGuards: serving-only means Backward and the neuron-sparsity
// paths refuse compressed layers, invalid names are rejected, and f32 is a
// no-op.
func TestCompressGuards(t *testing.T) {
	m := NewTransformer(tinyConfig(), tensor.NewRNG(1))
	if err := m.Compress("f4"); err == nil {
		t.Fatal("unknown precision accepted")
	}
	if err := m.Compress(PrecisionF32); err != nil || m.Compressed() {
		t.Fatalf("f32 compress not a no-op: %v", err)
	}
	if err := m.Compress(PrecisionF16); err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mlp := m.Blocks[0].MLP
	x := tensor.New(1, m.Cfg.Dim)
	ws := tensor.NewArena()
	mustPanic("sparse forward", func() { mlp.Forward(x, []int{0}, 8, ws) })
	mustPanic("backward", func() {
		mlp.Forward(x, nil, 0, ws)
		mlp.Backward(tensor.New(1, m.Cfg.Dim), ws)
	})

	lora := NewTransformer(tinyConfig(), tensor.NewRNG(2))
	lora.Blocks[0].Attn.Wq.AddLoRA("q", 2, 4, tensor.NewRNG(3))
	if err := lora.Compress(PrecisionI8); err == nil {
		t.Fatal("compressing a LoRA-carrying layer was accepted")
	}
}

// TestCompressAcceptsNaNWeights: a base holding NaN weights compresses to
// every format without panicking — here a whole 2:4 group of NaNs, which
// once left the pack no column to keep — and the f16 and 2:4 matrices
// dequantize the NaN back (int8 has no NaN code).
func TestCompressAcceptsNaNWeights(t *testing.T) {
	nan := float32(math.NaN())
	for _, prec := range []string{PrecisionF16, PrecisionNM24} {
		m := NewTransformer(tinyConfig(), tensor.NewRNG(3))
		copy(m.Blocks[0].MLP.W1.W.Data, []float32{nan, nan, nan, nan})
		if err := m.Compress(prec); err != nil {
			t.Fatalf("%s: %v", prec, err)
		}
		if got := m.Blocks[0].MLP.PackedW1.Dequant().Data; !math.IsNaN(float64(got[0])) {
			t.Fatalf("%s: NaN weight dequantizes to %v", prec, got[0])
		}
	}
	// int8 has no form for a NaN (it would pack to 0) or an Inf (its whole
	// channel would dequantize to NaN): Compress refuses, naming the layer,
	// before it packs anything.
	for _, bad := range []float32{nan, float32(math.Inf(-1))} {
		m := NewTransformer(tinyConfig(), tensor.NewRNG(3))
		last := m.Blocks[len(m.Blocks)-1].MLP.W2
		last.W.Data[5] = bad
		err := m.Compress(PrecisionI8)
		if err == nil || !strings.Contains(err.Error(), last.Name) {
			t.Fatalf("int8 with a %v weight: err %v, want one naming %s", bad, err, last.Name)
		}
		if b0 := m.Blocks[0]; b0.Attn.Wq.Packed != nil || b0.MLP.PackedW1 != nil || b0.MLP.W1.W.Data == nil {
			t.Fatalf("int8 with a %v weight: model packed before the error", bad)
		}
	}
}
