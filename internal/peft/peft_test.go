package peft

import (
	"math"
	"strings"
	"testing"

	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/tensor"
)

func freshModel(seed uint64) *nn.Transformer {
	r := tensor.NewRNG(seed)
	return nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
}

// trainableRatio reports trainable/total scalar parameters after Apply.
func trainableRatio(m *nn.Transformer) float64 {
	total, trainable := m.NumParams()
	return float64(trainable) / float64(total)
}

func TestFullFTEverythingTrainable(t *testing.T) {
	m := freshModel(1)
	Apply(m, FullFT, Options{}, tensor.NewRNG(2))
	if r := trainableRatio(m); r != 1 {
		t.Fatalf("FullFT trainable ratio = %v", r)
	}
}

func TestLoRAInjectsSmallTrainableSet(t *testing.T) {
	m := freshModel(3)
	opts := Apply(m, LoRA, Options{LoRARank: 2}, tensor.NewRNG(4))
	if opts.LoRARank != 2 || opts.LoRAAlpha != 16 {
		t.Fatalf("options not defaulted correctly: %+v", opts)
	}
	ratio := trainableRatio(m)
	if ratio <= 0 || ratio > 0.05 {
		t.Fatalf("LoRA trainable ratio = %v, want small and nonzero", ratio)
	}
	for _, p := range m.Params().Trainable() {
		if !strings.Contains(p.Name, "lora") {
			t.Fatalf("non-LoRA parameter trainable: %s", p.Name)
		}
	}
	// Every block's Q and V projections must carry LoRA.
	for i, b := range m.Blocks {
		if !b.Attn.Wq.HasLoRA() || !b.Attn.Wv.HasLoRA() {
			t.Fatalf("block %d missing LoRA", i)
		}
		if b.Attn.Wk.HasLoRA() || b.Attn.Wo.HasLoRA() {
			t.Fatalf("block %d has LoRA on K/O projections", i)
		}
	}
}

func TestLoRAForwardUnchangedAtInit(t *testing.T) {
	// LoRA B starts at zero, so logits must match the frozen backbone's.
	m := freshModel(5)
	ids := [][]int{{1, 2, 3, 4}}
	ws := tensor.NewArena()
	before := m.Forward(ids, nil, ws).Clone()
	Apply(m, LoRA, Options{}, tensor.NewRNG(6))
	after := m.Forward(ids, nil, ws)
	if d := tensor.MaxAbsDiff(before, after); d != 0 {
		t.Fatalf("LoRA injection changed the function: %v", d)
	}
}

func TestAdapterInjection(t *testing.T) {
	m := freshModel(7)
	ids := [][]int{{1, 2, 3, 4}}
	ws := tensor.NewArena()
	before := m.Forward(ids, nil, ws).Clone()
	Apply(m, Adapter, Options{Bottleneck: 8}, tensor.NewRNG(8))
	after := m.Forward(ids, nil, ws)
	// Adapters initialize to identity.
	if d := tensor.MaxAbsDiff(before, after); d > 1e-5 {
		t.Fatalf("fresh adapters changed the function: %v", d)
	}
	for _, p := range m.Params().Trainable() {
		if !strings.Contains(p.Name, "adapter") {
			t.Fatalf("non-adapter parameter trainable: %s", p.Name)
		}
	}
}

func TestBitFitUnfreezesBiasesOnly(t *testing.T) {
	m := freshModel(9)
	Apply(m, BitFit, Options{}, tensor.NewRNG(10))
	tr := m.Params().Trainable()
	if len(tr) == 0 {
		t.Fatal("BitFit trained nothing")
	}
	for _, p := range tr {
		if !strings.HasSuffix(p.Name, ".bias") && !strings.HasSuffix(p.Name, ".beta") {
			t.Fatalf("BitFit trainable non-bias: %s", p.Name)
		}
	}
	// Biases are a few percent of a dim-32 toy model (≈0.01% at OPT scale).
	if r := trainableRatio(m); r > 0.05 {
		t.Fatalf("BitFit ratio = %v, too large", r)
	}
}

func TestPTuningAddsPrompt(t *testing.T) {
	m := freshModel(11)
	Apply(m, PTuning, Options{PromptTokens: 4}, tensor.NewRNG(12))
	if m.Prompt == nil || m.PromptLen != 4 {
		t.Fatal("prompt not enabled")
	}
	tr := m.Params().Trainable()
	if len(tr) != 1 || tr[0].Name != "prompt" {
		t.Fatalf("P-Tuning trainable set = %v", tr)
	}
	// Sequence grows by the prompt length.
	logits := m.Forward([][]int{{1, 2, 3}}, nil, tensor.NewArena())
	if logits.Dim(0) != 7 {
		t.Fatalf("logit rows = %d, want 7", logits.Dim(0))
	}
}

func TestMethodStringsMatchPaperTable(t *testing.T) {
	want := []string{"Full Param.", "LoRA", "Adapter", "Bitfit", "P-Tuning"}
	for i, m := range AllMethods() {
		if m.String() != want[i] {
			t.Fatalf("method %d = %q, want %q", i, m, want[i])
		}
	}
}

func TestSGDQuadraticConvergence(t *testing.T) {
	p := nn.NewParameter("w", 4)
	for i := range p.W.Data {
		p.W.Data[i] = 5
	}
	opt := NewSGD(0.2, 0.5)
	ps := nn.ParamSet{p}
	for step := 0; step < 200; step++ {
		for i, w := range p.W.Data {
			p.Grad.Data[i] = 2 * w // ∇(w²)
		}
		opt.Step(ps)
	}
	for _, w := range p.W.Data {
		if math.Abs(float64(w)) > 1e-3 {
			t.Fatalf("SGD did not converge: %v", p.W.Data)
		}
	}
	if opt.StateBytes() != 16 {
		t.Fatalf("SGD StateBytes = %d", opt.StateBytes())
	}
}

func TestAdamWQuadraticConvergence(t *testing.T) {
	p := nn.NewParameter("w", 4)
	for i := range p.W.Data {
		p.W.Data[i] = 3
	}
	opt := NewAdamW(0.1, 0)
	ps := nn.ParamSet{p}
	for step := 0; step < 300; step++ {
		for i, w := range p.W.Data {
			p.Grad.Data[i] = 2 * w
		}
		opt.Step(ps)
	}
	for _, w := range p.W.Data {
		if math.Abs(float64(w)) > 1e-2 {
			t.Fatalf("AdamW did not converge: %v", p.W.Data)
		}
	}
	if opt.StateBytes() != 32 { // m and v, 4 floats each
		t.Fatalf("AdamW StateBytes = %d", opt.StateBytes())
	}
}

func TestOptimizerSkipsFrozen(t *testing.T) {
	pFrozen := nn.NewParameter("a", 2)
	pFrozen.Frozen = true
	pFrozen.W.Fill(1)
	pFrozen.Grad.Fill(10)
	pLive := nn.NewParameter("b", 2)
	pLive.W.Fill(1)
	pLive.Grad.Fill(10)

	opt := NewAdamW(0.1, 0)
	opt.Step(nn.ParamSet{pFrozen, pLive})
	if pFrozen.W.Data[0] != 1 {
		t.Fatal("frozen parameter was updated")
	}
	if pLive.W.Data[0] == 1 {
		t.Fatal("trainable parameter was not updated")
	}
}

func TestAdamWFirstStepMagnitude(t *testing.T) {
	// With bias correction, the first AdamW step is ≈ lr·sign(g).
	p := nn.NewParameter("w", 1)
	p.Grad.Data[0] = 0.7
	opt := NewAdamW(0.01, 0)
	opt.Step(nn.ParamSet{p})
	if math.Abs(float64(p.W.Data[0])+0.01) > 1e-4 {
		t.Fatalf("first step = %v, want ≈ -0.01", p.W.Data[0])
	}
}

func TestWeightDecayDecouples(t *testing.T) {
	// Zero gradient + weight decay must still shrink the weight.
	p := nn.NewParameter("w", 1)
	p.W.Data[0] = 1
	opt := NewAdamW(0.1, 0.5)
	opt.Step(nn.ParamSet{p})
	if p.W.Data[0] >= 1 {
		t.Fatalf("weight decay had no effect: %v", p.W.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	p := nn.NewParameter("w", 2)
	p.Grad.Data[0], p.Grad.Data[1] = 3, 4 // norm 5
	norm := ClipGradNorm(nn.ParamSet{p}, 1)
	if math.Abs(norm-5) > 1e-6 {
		t.Fatalf("pre-clip norm = %v", norm)
	}
	if math.Abs(tensor.L2Norm(p.Grad)-1) > 1e-5 {
		t.Fatalf("post-clip norm = %v", tensor.L2Norm(p.Grad))
	}
	// Under the limit: untouched.
	p.Grad.Data[0], p.Grad.Data[1] = 0.3, 0.4
	ClipGradNorm(nn.ParamSet{p}, 1)
	if p.Grad.Data[0] != 0.3 {
		t.Fatal("clip modified in-limit gradient")
	}
}

func TestPaperModelSpecs(t *testing.T) {
	// Parameter counts must land near the nominal sizes (within 20%,
	// untied head included).
	cases := []struct {
		spec model.Spec
		want float64
	}{
		{model.OPT125M(), 125e6},
		{model.OPT350M(), 350e6},
		{model.OPT1p3B(), 1.3e9},
		{model.OPT2p7B(), 2.7e9},
		{model.GPT2Large(), 774e6},
		{model.GPT2XL(), 1.5e9},
	}
	for _, c := range cases {
		got := float64(c.spec.ParamCount())
		if got < c.want*0.8 || got > c.want*1.35 {
			t.Errorf("%s: %e params, nominal %e", c.spec, got, c.want)
		}
	}
	if model.GPT2XL().SupportsMLPSparsity() {
		t.Error("GeLU model claims MLP sparsity")
	}
	if !model.OPT1p3B().SupportsMLPSparsity() {
		t.Error("OPT model denies MLP sparsity")
	}
	if _, err := model.ByName("OPT-1.3B"); err != nil {
		t.Error(err)
	}
	if _, err := model.ByName("nope"); err == nil {
		t.Error("ByName accepted unknown model")
	}
}
