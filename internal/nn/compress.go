package nn

import (
	"fmt"
	"math"

	"longexposure/internal/tensor"
)

// Frozen-base weight compression. The paper stores parameters in fp16 and
// computes in fp32 (§VII-A); serving a frozen base additionally admits int8
// and 2:4 structured storage because precision becomes a compile-time
// property of a read-only artifact — the registry selects it at publish
// time, and every PEFT delta stays f32 on top. Compress rewrites the big
// matrices in place and FREES their f32 storage (weights and gradient
// buffers), so a compressed model is serving-only: Backward and the
// exposer need the f32 weights and refuse or must be skipped. Serving runs
// the same operators over the packed storage, contextual sparsity
// included: the MLP's neuron-block kernels read row ranges of it.

// Precision names accepted by Compress and the registry's base descriptor.
const (
	// PrecisionF32 (or empty) is the uncompressed default.
	PrecisionF32 = "f32"
	// PrecisionF16 stores every large matrix (attention projections, MLP,
	// LM head) as IEEE binary16: half the weight bytes, ≤2⁻¹¹ relative
	// error per weight.
	PrecisionF16 = "f16"
	// PrecisionI8 stores the same matrices as symmetric per-channel int8:
	// a quarter of the weight bytes, ≤scale/2 absolute error per weight.
	PrecisionI8 = "int8"
	// PrecisionNM24 prunes the MLP matrices to 2:4 structured sparsity
	// (tensor.WeightNM24: f32 values plus offsets, 0.625x weight bytes),
	// served by the same packed GEMM drivers as f16 and int8; attention
	// and head stay f32.
	PrecisionNM24 = "nm24"
)

// ValidPrecision reports whether p names a supported storage precision.
func ValidPrecision(p string) bool {
	switch p {
	case "", PrecisionF32, PrecisionF16, PrecisionI8, PrecisionNM24:
		return true
	}
	return false
}

// Compress converts the model's large frozen matrices to the named storage
// precision and frees their f32 weight and gradient buffers. Embeddings,
// LayerNorms, biases and any attached PEFT modules stay f32 (they are small
// and, for PEFT, trainable). The model must not carry LoRA branches on the
// layers being packed — compression is a base-artifact operation, applied
// before adapters attach.
func (m *Transformer) Compress(precision string) error {
	switch precision {
	case "", PrecisionF32:
		return nil
	case PrecisionF16, PrecisionI8:
		if precision == PrecisionI8 {
			if err := m.checkFiniteForInt8(); err != nil {
				return err
			}
		}
		for _, b := range m.Blocks {
			for _, l := range []*Linear{b.Attn.Wq, b.Attn.Wk, b.Attn.Wv, b.Attn.Wo} {
				if err := packLinear(l, precision); err != nil {
					return err
				}
			}
			mlp := b.MLP
			if precision == PrecisionF16 {
				mlp.PackedW1 = tensor.PackF16(mlp.W1.W)
				mlp.PackedW2 = tensor.PackF16(mlp.W2.W)
			} else {
				// W1 runs the TB kernel (rows are output neurons), W2 the
				// A·B kernel (columns are) — scales follow the kernel.
				mlp.PackedW1 = tensor.PackInt8(mlp.W1.W, tensor.ScalePerRow)
				mlp.PackedW2 = tensor.PackInt8(mlp.W2.W, tensor.ScalePerCol)
			}
			freeParam(mlp.W1)
			freeParam(mlp.W2)
		}
		return packLinear(m.Head, precision)
	case PrecisionNM24:
		if m.Cfg.Dim%4 != 0 {
			return fmt.Errorf("nn: %s needs dim %% 4 == 0, got %d", precision, m.Cfg.Dim)
		}
		for _, b := range m.Blocks {
			mlp := b.MLP
			mlp.PackedW1 = tensor.PackNM24(mlp.W1.W)
			mlp.PackedW2 = tensor.PackNM24(mlp.W2.W)
			freeParam(mlp.W1)
			freeParam(mlp.W2)
		}
		return nil
	}
	return fmt.Errorf("nn: unknown precision %q", precision)
}

// checkFiniteForInt8 rejects a model whose to-be-packed matrices hold a
// NaN or Inf, before anything is packed. int8 has no form for them: the
// per-channel absmax scale skips a NaN (it packs to 0), and an Inf makes
// its channel's scale Inf, so the whole channel dequantizes to NaN.
func (m *Transformer) checkFiniteForInt8() error {
	ps := []*Parameter{m.Head.W}
	for _, b := range m.Blocks {
		ps = append(ps, b.Attn.Wq.W, b.Attn.Wk.W, b.Attn.Wv.W, b.Attn.Wo.W, b.MLP.W1, b.MLP.W2)
	}
	for _, p := range ps {
		for _, v := range p.W.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("nn: cannot compress %s to %s: non-finite weight %v", p.Name, PrecisionI8, v)
			}
		}
	}
	return nil
}

func packLinear(l *Linear, precision string) error {
	if l.HasLoRA() {
		return fmt.Errorf("nn: cannot compress %s: LoRA branch attached", l.W.Name)
	}
	if precision == PrecisionF16 {
		l.Packed = tensor.PackF16(l.W.W)
	} else {
		l.Packed = tensor.PackInt8(l.W.W, tensor.ScalePerCol)
	}
	freeParam(l.W)
	return nil
}

// freeParam drops a parameter's f32 weight and gradient storage (shape
// metadata survives) and freezes it. Any dense kernel that still reads the
// weight will fail fast on the nil slice rather than compute with zeros.
func freeParam(p *Parameter) {
	p.W.Data = nil
	p.Grad.Data = nil
	p.Frozen = true
}

// WeightBytes reports the resident bytes of every weight the model serves
// with — f32 parameters (embeddings, norms, biases, uncompressed matrices,
// PEFT modules) plus packed storage. The serve gateway exports this
// per base as lexp_base_weight_bytes.
func (m *Transformer) WeightBytes() int64 {
	var total int64
	for _, p := range m.Params() {
		total += 4 * int64(p.W.Len())
	}
	for _, b := range m.Blocks {
		for _, l := range []*Linear{b.Attn.Wq, b.Attn.Wk, b.Attn.Wv, b.Attn.Wo} {
			if l.Packed != nil {
				total += l.Packed.Bytes()
			}
		}
		mlp := b.MLP
		if mlp.PackedW1 != nil {
			total += mlp.PackedW1.Bytes()
		}
		if mlp.PackedW2 != nil {
			total += mlp.PackedW2.Bytes()
		}
	}
	if m.Head.Packed != nil {
		total += m.Head.Packed.Bytes()
	}
	return total
}
