package predictor

import (
	"fmt"
	"strings"
	"testing"

	"longexposure/internal/nn"
	"longexposure/internal/obs"
	"longexposure/internal/tensor"
)

// servingConfig is the test model: ReLU (MLP sparsity eligible), three
// layers so auto mode has a middle layer to sparsify, Hidden 32 at blk 8
// → four neuron blocks, MaxSeq long enough for attention selection to arm.
func servingConfig() nn.Config {
	return nn.Config{Name: "serv-tiny", Vocab: 32, Dim: 16, Layers: 3, Heads: 2, Hidden: 32, MaxSeq: 64, Act: nn.ActReLU}
}

// sgdSteps nudges every trainable parameter so attached PEFT modules carry
// non-trivial deltas (LoRA B starts at zero, adapters at identity).
func sgdSteps(m *nn.Transformer, steps int) {
	ids := [][]int{{2, 5, 3, 7, 2, 5, 3, 7}}
	targets := [][]int{{5, 3, 7, 2, 5, 3, 7, 2}}
	ps := m.Params()
	ws := tensor.NewArena()
	for i := 0; i < steps; i++ {
		logits := m.Forward(ids, nil, ws)
		_, dLogits := nn.CrossEntropyIn(ws, logits, m.FlattenTargetsIn(ws, targets))
		ps.ZeroGrads()
		m.Backward(dLogits, ws)
		for _, p := range ps.Trainable() {
			tensor.AddScaledInto(p.W, p.Grad, -0.05)
		}
		ws.Release()
	}
}

// servingParityModels builds the PEFT variants the density-1.0 gate must
// hold across: LoRA on Q/V, bottleneck adapters, and a trainable prompt.
func servingParityModels() map[string]*nn.Transformer {
	models := map[string]*nn.Transformer{}

	lora := nn.NewTransformer(servingConfig(), tensor.NewRNG(801))
	for li, b := range lora.Blocks {
		name := fmt.Sprintf("layer%d.attn", li)
		b.Attn.Wq.AddLoRA(name+".q_proj", 2, 4, tensor.NewRNG(uint64(810+li)))
		b.Attn.Wv.AddLoRA(name+".v_proj", 2, 4, tensor.NewRNG(uint64(820+li)))
	}
	sgdSteps(lora, 3)
	models["lora"] = lora

	adpt := nn.NewTransformer(servingConfig(), tensor.NewRNG(802))
	for li, b := range adpt.Blocks {
		b.AdptA = nn.NewAdapter(fmt.Sprintf("layer%d.adapter_attn", li), adpt.Cfg.Dim, 4, tensor.NewRNG(uint64(830+li)))
		b.AdptM = nn.NewAdapter(fmt.Sprintf("layer%d.adapter_mlp", li), adpt.Cfg.Dim, 4, tensor.NewRNG(uint64(840+li)))
	}
	sgdSteps(adpt, 3)
	models["adapter"] = adpt

	prompt := nn.NewTransformer(servingConfig(), tensor.NewRNG(803))
	prompt.EnablePrompt(3, tensor.NewRNG(850))
	sgdSteps(prompt, 3)
	models["ptuning"] = prompt

	return models
}

// TestServingDensityOneBitIdentical is the PR's quality gate: a forced
// density-1.0 sequence planner must reproduce the dense cached decode
// token for token — across PEFT variants, greedy and tempered sampling,
// with and without a workspace arena. Full-coverage selections take the
// dense escape (nil plan entries), so identity is structural, not a
// kernel-equivalence accident.
func TestServingDensityOneBitIdentical(t *testing.T) {
	opts := nn.SparsityOptions{Mode: nn.SparsityForced, MLPDensity: 1, AttnDensity: 1}
	prompt := []int{1, 4, 2, 9}
	for name, m := range servingParityModels() {
		sp := NewServingPlanner(m, nil, ServingConfig{})
		for _, temp := range []float64{0, 0.8} {
			for _, withWS := range []bool{false, true} {
				label := fmt.Sprintf("%s/temp=%.1f/ws=%v", name, temp, withWS)
				cfg := nn.GenerateConfig{MaxTokens: 10, Temperature: temp, RNG: tensor.NewRNG(777)}
				want := m.GenerateCachedCfg(prompt, cfg, nn.DecodeSession{WS: tensor.NewArena()})

				planner, err := sp.NewSequencePlanner(opts)
				if err != nil {
					t.Fatal(err)
				}
				var ws *tensor.Arena
				if withWS {
					ws = tensor.NewArena()
				}
				cfg.RNG = tensor.NewRNG(777)
				got := m.GenerateCachedCfg(prompt, cfg, nn.DecodeSession{WS: ws, Planner: planner})
				if len(got) != len(want) {
					t.Fatalf("%s: %d tokens vs dense %d (%v vs %v)", label, len(got), len(want), got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: token %d differs: %v vs dense %v", label, i, got, want)
					}
				}
			}
		}
	}
}

// TestSequencePlannerSelections pins the selection mechanics: forced mode
// hits the density targets on every layer, block lists are ascending with
// sink and recent blocks kept, and the block holding the current position
// is always selected (the attention kernel panics otherwise).
func TestSequencePlannerSelections(t *testing.T) {
	m := nn.NewTransformer(servingConfig(), tensor.NewRNG(860))
	sp := NewServingPlanner(m, nil, ServingConfig{})
	planner, err := sp.NewSequencePlanner(nn.SparsityOptions{Mode: nn.SparsityForced, MLPDensity: 0.5, AttnDensity: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s := planner.(*SequencePlanner)
	prompt := make([]int, 30)
	for i := range prompt {
		prompt[i] = 1 + i%7
	}
	s.BeginSequence(prompt, nil)

	ws := tensor.NewArena()
	pos := len(prompt) // vb = ceil(31/8) = 4 visible blocks
	plan := s.PlanStep(3, pos, ws)

	if plan.Blk != 8 {
		t.Fatalf("plan blk %d, want 8", plan.Blk)
	}
	if plan.MLPDensity != 0.5 {
		t.Fatalf("plan MLP density %v, want 0.5", plan.MLPDensity)
	}
	for li := 0; li < 3; li++ {
		mlp := plan.MLP[li]
		if len(mlp) != 2 { // k = 0.5 · 4 blocks, forced on every layer
			t.Fatalf("layer %d MLP selection %v, want 2 of 4 blocks", li, mlp)
		}
		for i := 1; i < len(mlp); i++ {
			if mlp[i] <= mlp[i-1] {
				t.Fatalf("layer %d MLP selection %v not strictly ascending", li, mlp)
			}
		}
		attn := plan.Attn[li]
		// vb=4: kb = max(ceil(0.5·4), sink+recent) = 3 → {sink 0, recent 2, 3}.
		if len(attn) != 3 || attn[0] != 0 {
			t.Fatalf("layer %d attention selection %v, want 3 blocks starting at sink 0", li, attn)
		}
		last := attn[len(attn)-1]
		if last != pos/8 {
			t.Fatalf("layer %d attention selection %v misses current block %d", li, attn, pos/8)
		}
	}
	ws.Release()

	// Auto mode protects the first and last layers and short prefixes.
	auto, err := sp.NewSequencePlanner(nn.SparsityOptions{Mode: nn.SparsityAuto})
	if err != nil {
		t.Fatal(err)
	}
	a := auto.(*SequencePlanner)
	a.BeginSequence([]int{1, 2, 3}, nil)
	plan = a.PlanStep(4, 3, ws) // vb=1 < MinAttnBlocks → attention dense
	if plan.MLP[0] != nil || plan.MLP[2] != nil {
		t.Fatalf("auto mode sparsified a sensitive layer: %v / %v", plan.MLP[0], plan.MLP[2])
	}
	if plan.MLP[1] == nil {
		t.Fatal("auto mode left the middle layer dense")
	}
	for li := 0; li < 3; li++ {
		if plan.Attn[li] != nil {
			t.Fatalf("short prefix attended sparsely at layer %d: %v", li, plan.Attn[li])
		}
	}
	ws.Release()
}

// TestSequencePlannerValidation pins the option surface: off is a nil
// planner, unknown modes and out-of-range densities are errors naming the
// offending field.
func TestSequencePlannerValidation(t *testing.T) {
	m := nn.NewTransformer(servingConfig(), tensor.NewRNG(861))
	sp := NewServingPlanner(m, nil, ServingConfig{})

	if p, err := sp.NewSequencePlanner(nn.SparsityOptions{}); p != nil || err != nil {
		t.Fatalf("zero options: (%v, %v), want (nil, nil)", p, err)
	}
	for _, c := range []struct {
		opts    nn.SparsityOptions
		mention string
	}{
		{nn.SparsityOptions{Mode: "bogus"}, "sparsity.mode"},
		{nn.SparsityOptions{Mode: nn.SparsityAuto, MLPDensity: 2}, "sparsity.mlp_density"},
		{nn.SparsityOptions{Mode: nn.SparsityForced, AttnDensity: -1}, "sparsity.attn_density"},
		{nn.SparsityOptions{MLPDensity: 0.5}, "sparsity.mode"},
	} {
		_, err := sp.NewSequencePlanner(c.opts)
		if err == nil || !strings.Contains(err.Error(), c.mention) {
			t.Fatalf("opts %+v: err %v, want mention of %s", c.opts, err, c.mention)
		}
	}
}

// TestServingPlannerUsesTrainedPredictors pins the estimator priority: a
// layer whose trained predictor lines up with the planner geometry skips
// the fallback power iteration; mismatched geometry falls back.
func TestServingPlannerUsesTrainedPredictors(t *testing.T) {
	m := nn.NewTransformer(servingConfig(), tensor.NewRNG(862))
	mk := func(blk int) *MLPPredictor {
		nblk := (m.Cfg.Hidden + blk - 1) / blk
		return &MLPPredictor{
			Dim: m.Cfg.Dim, Hidden: m.Cfg.Hidden, Blk: blk, NBlk: nblk,
			Wa:   tensor.New(m.Cfg.Dim, nblk),
			Bias: make([]float32, nblk),
		}
	}
	set := &Set{Blk: 8, Layers: []LayerPredictors{{MLP: mk(8)}, {}, {MLP: mk(8)}}}
	sp := NewServingPlanner(m, set, ServingConfig{})
	if sp.trainedMLP(0) == nil || sp.trainedMLP(2) == nil {
		t.Fatal("aligned trained predictors not used")
	}
	if sp.trainedMLP(1) != nil {
		t.Fatal("layer without predictor reported trained")
	}
	if sp.fallback[0].sigma != nil || sp.fallback[1].sigma == nil {
		t.Fatal("fallback estimators built for the wrong layers")
	}
}

// TestPlanStepZeroAllocs is the hot-path contract: once the arena pools
// are warm, planning a step allocates nothing — selection buffers come
// from the step arena, everything else is planner-owned scratch.
func TestPlanStepZeroAllocs(t *testing.T) {
	obsReg := obs.NewRegistry()
	m := nn.NewTransformer(servingConfig(), tensor.NewRNG(863))
	sp := NewServingPlanner(m, nil, ServingConfig{Metrics: obs.NewServingSparsityMetrics(obsReg)})
	planner, err := sp.NewSequencePlanner(nn.SparsityOptions{Mode: nn.SparsityForced, MLPDensity: 0.5, AttnDensity: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s := planner.(*SequencePlanner)
	prompt := make([]int, 30)
	for i := range prompt {
		prompt[i] = 1 + i%7
	}
	s.BeginSequence(prompt, nil)

	ws := tensor.NewArena()
	pos := len(prompt)
	s.PlanStep(3, pos, ws) // warm arena pools and gauge caches
	ws.Release()

	allocs := testing.AllocsPerRun(100, func() {
		s.PlanStep(3, pos, ws)
		ws.Release()
	})
	if allocs != 0 {
		t.Fatalf("PlanStep allocates %v per run, want 0", allocs)
	}
}
