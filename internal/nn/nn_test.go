package nn

import (
	"testing"

	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

func tinyConfig() Config {
	return Config{Name: "tiny", Vocab: 17, Dim: 16, Layers: 2, Heads: 2, Hidden: 32, MaxSeq: 16, Act: ActReLU}
}

// fullSparsePlan builds a plan whose layouts/blocks cover everything, so the
// sparse execution path must reproduce the dense path exactly.
func fullSparsePlan(cfg Config, seq, blk int) *SparsePlan {
	nb := seq / blk
	dense := sparse.Pattern{Kind: sparse.KindDense}.Build(nb)
	plan := &SparsePlan{Blk: blk}
	for l := 0; l < cfg.Layers; l++ {
		heads := make([]*sparse.Layout, cfg.Heads)
		for h := range heads {
			heads[h] = dense
		}
		plan.Attn = append(plan.Attn, heads)
		plan.MLP = append(plan.MLP, sparse.AllBlocks(cfg.Hidden, blk))
	}
	return plan
}

func TestSparseFullPlanMatchesDenseForward(t *testing.T) {
	r := tensor.NewRNG(200)
	cfg := tinyConfig()
	m := NewTransformer(cfg, r)
	ids := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}, {8, 7, 6, 5, 4, 3, 2, 1}}

	dense := m.Forward(ids, nil, nil)
	sparseOut := m.Forward(ids, fullSparsePlan(cfg, 8, 4), nil)
	if d := tensor.MaxAbsDiff(dense, sparseOut); d > 1e-3 {
		t.Fatalf("sparse full plan diverges from dense: %v", d)
	}
}

func TestSparseFullPlanMatchesDenseGradients(t *testing.T) {
	r := tensor.NewRNG(201)
	cfg := tinyConfig()
	m := NewTransformer(cfg, r)
	ids := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}}
	targets := [][]int{{2, 3, 4, 5, 6, 7, 8, 9}}
	flat := m.FlattenTargets(targets)

	run := func(plan *SparsePlan) map[string][]float32 {
		logits := m.Forward(ids, plan, nil)
		_, dLogits := CrossEntropy(logits, flat)
		m.Params().ZeroGrads()
		m.Backward(dLogits, nil)
		out := make(map[string][]float32)
		for _, p := range m.Params() {
			out[p.Name] = append([]float32(nil), p.Grad.Data...)
		}
		return out
	}

	gDense := run(nil)
	gSparse := run(fullSparsePlan(cfg, 8, 4))
	for name, gd := range gDense {
		gs := gSparse[name]
		for i := range gd {
			diff := float64(gd[i] - gs[i])
			if diff > 1e-3 || diff < -1e-3 {
				t.Fatalf("%s grad[%d]: dense %v vs sparse %v", name, i, gd[i], gs[i])
			}
		}
	}
}

func TestMLPSparseSubsetMatchesMaskedDense(t *testing.T) {
	r := tensor.NewRNG(202)
	dim, hidden, blk := 8, 16, 4
	m := NewMLP("mlp", dim, hidden, ActReLU, r)
	x := tensor.New(6, dim)
	r.FillNormal(x, 1)

	blocks := []int{0, 2} // neurons 0-3 and 8-11 active
	got := m.Forward(x, blocks, blk, nil)

	// Reference: dense forward with inactive neurons' FC1 columns, biases
	// and FC2 rows zeroed.
	m2 := NewMLP("mlp2", dim, hidden, ActReLU, r.Split())
	m2.W1.W.CopyFrom(m.W1.W)
	m2.B1.W.CopyFrom(m.B1.W)
	m2.W2.W.CopyFrom(m.W2.W)
	m2.B2.W.CopyFrom(m.B2.W)
	active := func(h int) bool { return h/blk == 0 || h/blk == 2 }
	for h := 0; h < hidden; h++ {
		if !active(h) {
			for j := 0; j < dim; j++ {
				m2.W1.W.Set(0, h, j)
				m2.W2.W.Set(0, h, j)
			}
			m2.B1.W.Data[h] = 0
		}
	}
	want := m2.Forward(x, nil, 0, nil)
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("sparse subset forward mismatch: %v", d)
	}

	// Backward equivalence for the input gradient.
	dOut := tensor.New(6, dim)
	r.FillNormal(dOut, 1)
	m.Params().ZeroGrads()
	m2.Params().ZeroGrads()
	dx := m.Backward(dOut, nil)
	dx2 := m2.Backward(dOut, nil)
	if d := tensor.MaxAbsDiff(dx, dx2); d > 1e-4 {
		t.Fatalf("sparse subset backward mismatch: %v", d)
	}
}

func TestMLPGeLURejectsSparsity(t *testing.T) {
	r := tensor.NewRNG(203)
	m := NewMLP("mlp", 8, 16, ActGeLU, r)
	defer func() {
		if recover() == nil {
			t.Fatal("GeLU MLP accepted a sparse plan")
		}
	}()
	x := tensor.New(2, 8)
	m.Forward(x, []int{0}, 4, nil)
}

func TestFrozenParametersReceiveNoGradient(t *testing.T) {
	r := tensor.NewRNG(204)
	cfg := tinyConfig()
	m := NewTransformer(cfg, r)
	ps := m.Params()
	ps.FreezeAll()
	// Unfreeze one bias only (BitFit-style).
	b := m.Blocks[0].Attn.Wq.B
	b.Frozen = false

	ids := [][]int{{1, 2, 3, 4}}
	flat := m.FlattenTargets([][]int{{2, 3, 4, 5}})
	logits := m.Forward(ids, nil, nil)
	_, dLogits := CrossEntropy(logits, flat)
	ps.ZeroGrads()
	m.Backward(dLogits, nil)

	for _, p := range ps {
		norm := tensor.L2Norm(p.Grad)
		if p.Frozen && norm != 0 {
			t.Errorf("frozen %s has gradient norm %v", p.Name, norm)
		}
		if !p.Frozen && norm == 0 {
			t.Errorf("trainable %s has zero gradient", p.Name)
		}
	}
}

func TestParamSetBookkeeping(t *testing.T) {
	r := tensor.NewRNG(205)
	cfg := tinyConfig()
	m := NewTransformer(cfg, r)
	ps := m.Params()
	total, trainable := ps.NumParams()
	if total != trainable {
		t.Fatalf("fresh model should be fully trainable: %d vs %d", total, trainable)
	}
	ps.FreezeAll()
	_, trainable = ps.NumParams()
	if trainable != 0 {
		t.Fatalf("FreezeAll left %d trainable", trainable)
	}
	if ps.ByName("lm_head.weight") == nil {
		t.Fatal("ByName failed to find lm_head.weight")
	}
	if ps.ByName("nonexistent") != nil {
		t.Fatal("ByName found a ghost")
	}
}

func TestTransformerLearnsCopyTask(t *testing.T) {
	// A two-layer model must be able to fit "predict the same token" in a
	// few dozen SGD steps — the smoke test that forward+backward are
	// coherent end to end.
	r := tensor.NewRNG(206)
	cfg := Config{Name: "tiny", Vocab: 8, Dim: 16, Layers: 1, Heads: 2, Hidden: 32, MaxSeq: 8, Act: ActReLU}
	m := NewTransformer(cfg, r)
	ps := m.Params()

	ids := [][]int{{1, 2, 3, 4, 5, 6, 7, 1}}
	targets := [][]int{{1, 2, 3, 4, 5, 6, 7, 1}} // predict input itself
	flat := m.FlattenTargets(targets)

	var first, last float64
	for step := 0; step < 60; step++ {
		logits := m.Forward(ids, nil, nil)
		loss, dLogits := CrossEntropy(logits, flat)
		if step == 0 {
			first = loss
		}
		last = loss
		ps.ZeroGrads()
		m.Backward(dLogits, nil)
		for _, p := range ps {
			tensor.AddScaledInto(p.W, p.Grad, -0.5)
		}
	}
	if last > first*0.5 {
		t.Fatalf("loss did not halve: first %v, last %v", first, last)
	}
}

func TestAttentionHeadSplitMergeRoundTrip(t *testing.T) {
	r := tensor.NewRNG(207)
	a := NewMultiHeadAttention("attn", 12, 3, r)
	batch, seq := 2, 4
	x := tensor.New(8, 12)
	r.FillNormal(x, 1)
	heads := a.splitHeads(nil, x, batch, seq, nil)
	if len(heads) != 6 {
		t.Fatalf("splitHeads gave %d buffers", len(heads))
	}
	back := a.mergeHeads(heads, batch, seq, nil)
	if d := tensor.MaxAbsDiff(back, x); d != 0 {
		t.Fatalf("merge∘split != identity: %v", d)
	}
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Heads = 3 // 16 % 3 != 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid heads accepted")
	}
	bad = good
	bad.Vocab = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero vocab accepted")
	}
}
