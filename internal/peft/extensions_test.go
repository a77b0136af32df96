package peft

import (
	"math"
	"strings"
	"testing"

	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/tensor"
)

func TestLoRAFAOnlyBTrains(t *testing.T) {
	m := freshModel(20)
	Apply(m, LoRA, Options{LoRAFreezeA: true}, tensor.NewRNG(21))
	for _, p := range m.Params().Trainable() {
		if !strings.Contains(p.Name, "lora_B") {
			t.Fatalf("LoRA-FA trainable non-B parameter: %s", p.Name)
		}
	}
	// Half the LoRA parameters of plain LoRA.
	m2 := freshModel(20)
	Apply(m2, LoRA, Options{}, tensor.NewRNG(21))
	_, faTrainable := m.NumParams()
	_, plainTrainable := m2.NumParams()
	if faTrainable*2 != plainTrainable {
		t.Fatalf("LoRA-FA trainable %d, plain %d (want half)", faTrainable, plainTrainable)
	}
}

func TestLoRAFAStillLearns(t *testing.T) {
	r := tensor.NewRNG(22)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	Apply(m, LoRA, Options{LoRAFreezeA: true}, r.Split())
	opt := NewAdamW(5e-3, 0)
	ps := m.Params()

	ids := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}}
	ws := tensor.NewArena()
	var first, last float64
	for step := 0; step < 40; step++ {
		logits := m.Forward(ids, nil, ws)
		loss, dLogits := nn.CrossEntropyIn(ws, logits, m.FlattenTargetsIn(ws, ids))
		if step == 0 {
			first = loss
		}
		last = loss
		ps.ZeroGrads()
		m.Backward(dLogits, ws)
		opt.Step(ps)
		ws.Release()
	}
	if last >= first {
		t.Fatalf("LoRA-FA did not reduce loss: %.3f → %.3f", first, last)
	}
	// A must be untouched by training.
	for _, b := range m.Blocks {
		if n := tensor.L2Norm(b.Attn.Wq.LoRAA.Grad); n != 0 {
			t.Fatal("frozen LoRA-A accumulated gradient")
		}
	}
}

func TestQuantizeBackboneRoundsFrozenOnly(t *testing.T) {
	m := freshModel(23)
	before := m.Blocks[0].Attn.Wq.W.W.Clone()
	Apply(m, LoRA, Options{QuantizeBackbone: true}, tensor.NewRNG(24))

	// Frozen backbone weights must be fp16-representable now.
	w := m.Blocks[0].Attn.Wq.W.W
	changed := false
	for i, v := range w.Data {
		rt := v // already rounded: rounding again must be identity
		if rt != w.Data[i] {
			t.Fatal("quantized weight not idempotent")
		}
		if v != before.Data[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("quantization changed nothing — suspicious for random floats")
	}

	// Function is perturbed only slightly.
	m2 := freshModel(23)
	Apply(m2, LoRA, Options{}, tensor.NewRNG(24))
	ids := [][]int{{1, 2, 3, 4}}
	ws := tensor.NewArena()
	a := m.Forward(ids, nil, ws)
	b := m2.Forward(ids, nil, ws)
	if d := tensor.MaxAbsDiff(a, b); d == 0 || d > 0.1 {
		t.Fatalf("fp16 backbone perturbation %v out of expected band", d)
	}
}

func TestQuantizeBackboneKeepsAccuracyBehaviour(t *testing.T) {
	// Quantized and full-precision backbones must train to similar losses.
	run := func(quantize bool) float64 {
		r := tensor.NewRNG(25)
		m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
		Apply(m, LoRA, Options{QuantizeBackbone: quantize}, r.Split())
		opt := NewAdamW(3e-3, 0)
		ps := m.Params()
		ids := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}}
		ws := tensor.NewArena()
		var last float64
		for step := 0; step < 30; step++ {
			logits := m.Forward(ids, nil, ws)
			loss, dLogits := nn.CrossEntropyIn(ws, logits, m.FlattenTargetsIn(ws, ids))
			last = loss
			ps.ZeroGrads()
			m.Backward(dLogits, ws)
			opt.Step(ps)
			ws.Release()
		}
		return last
	}
	fp32 := run(false)
	fp16 := run(true)
	if math.Abs(fp32-fp16) > 0.2*fp32+0.05 {
		t.Fatalf("quantized training diverges: fp32 %.4f vs fp16 %.4f", fp32, fp16)
	}
}
