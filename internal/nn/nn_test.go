package nn

import (
	"math"
	"sync"
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

	ws := tensor.NewArena()
	dense := m.Forward(ids, nil, ws)
	sparseOut := m.Forward(ids, fullSparsePlan(cfg, 8, 4), ws)
	if d := tensor.MaxAbsDiff(dense, sparseOut); d > 1e-3 {
		t.Fatalf("sparse full plan diverges from dense: %v", d)
	}
}

// denseCausalAttention is the naive dense reference for one head: the
// whole q·kᵀ product, the upper triangle masked to NegInf, a row softmax
// and the probability-weighted sum of v. It returns the probabilities.
func denseCausalAttention(out, q, k, v []float32, s, hd int, scale float32) *tensor.Tensor {
	scores := tensor.New(s, s)
	tensor.GemmTBRange(scores.Data, q, k, hd, s, s, 0, s)
	for i := 0; i < s; i++ {
		row := scores.Row(i)
		for j := 0; j <= i; j++ {
			row[j] *= scale
		}
		for j := i + 1; j < s; j++ {
			row[j] = tensor.NegInf
		}
		tensor.SoftmaxRow(row)
	}
	tensor.GemmRange(out, scores.Data, v, s, hd, s, hd, 0, s)
	return scores
}

// TestDenseAttentionMatchesNaiveReference pins dense attention, which runs
// the combined block operator over the full causal layout — tiled at seq
// 128 (four 32-token blocks per side), one block at seq 12 — against the
// naive dense reference: every head's probabilities (DenseProbs), every
// context row and the layer output agree bit for bit.
func TestDenseAttentionMatchesNaiveReference(t *testing.T) {
	const heads, hd, batch = 2, 16, 2
	for _, c := range []struct{ seq, nb int }{{128, 4}, {12, 1}} {
		r := tensor.NewRNG(uint64(300 + c.seq))
		a := NewMultiHeadAttention("attn", heads*hd, heads, r)
		x := tensor.New(batch*c.seq, heads*hd)
		r.FillNormal(x, 1)
		ws := tensor.NewArena()
		out := a.Forward(x, batch, c.seq, nil, 0, ws)
		st := stateOf[attnState](ws, a)
		if nb := st.hl.Heads[0].NB(); nb != c.nb {
			t.Fatalf("seq %d: %d blocks per side, want %d", c.seq, nb, c.nb)
		}
		probs := a.DenseProbs(ws)
		scale := float32(1 / math.Sqrt(hd))
		wantCtx := make([][]float32, batch*heads)
		for i := range wantCtx {
			wantCtx[i] = make([]float32, c.seq*hd)
			wantP := denseCausalAttention(wantCtx[i], st.qh[i], st.kh[i], st.vh[i], c.seq, hd, scale)
			for j, w := range wantP.Data {
				if math.Float32bits(probs[i].Data[j]) != math.Float32bits(w) {
					t.Fatalf("seq %d head %d: prob (%d,%d) = %v, want %v", c.seq, i, j/c.seq, j%c.seq, probs[i].Data[j], w)
				}
			}
			for j, w := range wantCtx[i] {
				if math.Float32bits(st.ctx[i][j]) != math.Float32bits(w) {
					t.Fatalf("seq %d head %d: ctx[%d] = %v, want %v", c.seq, i, j, st.ctx[i][j], w)
				}
			}
		}
		ref := tensor.NewArena()
		want := a.Wo.Forward(a.mergeHeads(wantCtx, batch, c.seq, ref), ref)
		if d := tensor.MaxAbsDiff(out, want); d != 0 {
			t.Fatalf("seq %d: output differs from the reference by %v", c.seq, d)
		}
	}
}

// TestSharedModelConcurrentForward pins the arena as the unit of
// concurrency: four goroutines share one model, each running dense and
// statically planned sparse forwards on a private arena, and every logit,
// LN1 output and activation mask read back through that arena equals a
// serial run's bit for bit. Run under -race it also proves the forwards
// write nothing to the shared layers.
func TestSharedModelConcurrentForward(t *testing.T) {
	cfg := tinyConfig()
	m := NewTransformer(cfg, tensor.NewRNG(205))
	const seq, blk = 8, 4
	local := sparse.Pattern{Kind: sparse.KindLocal, Window: 1}.Build(seq / blk)
	plan := &SparsePlan{Blk: blk}
	for l := 0; l < cfg.Layers; l++ {
		plan.Attn = append(plan.Attn, []*sparse.Layout{local, local})
		plan.MLP = append(plan.MLP, []int{l, 3})
	}
	ids := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}, {8, 7, 6, 5, 4, 3, 2, 1}}

	// run returns, per planner, the logits then each block's LN1 output
	// and activation mask, copied out before the arena is released.
	run := func(ws *tensor.Arena) [][]float32 {
		var out [][]float32
		for _, p := range []Planner{nil, plan} {
			out = append(out, append([]float32(nil), m.Forward(ids, p, ws).Data...))
			for _, b := range m.Blocks {
				out = append(out, append([]float32(nil), b.LN1Out(ws).Data...))
				out = append(out, append([]float32(nil), b.MLP.ActivationMask(ws).Data...))
			}
			ws.Release()
		}
		return out
	}
	want := run(tensor.NewArena())

	got := make([][][]float32, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := tensor.NewArena()
			for rep := 0; rep < 3; rep++ {
				got[g] = run(ws)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i := range want {
			for j := range want[i] {
				if got[g][i][j] != want[i][j] {
					t.Fatalf("goroutine %d: tensor %d[%d] = %v, serial %v", g, i, j, got[g][i][j], want[i][j])
				}
			}
		}
	}
}

func TestSparseFullPlanMatchesDenseGradients(t *testing.T) {
	r := tensor.NewRNG(201)
	cfg := tinyConfig()
	m := NewTransformer(cfg, r)
	ids := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}}
	targets := [][]int{{2, 3, 4, 5, 6, 7, 8, 9}}
	ws := tensor.NewArena()
	flat := m.FlattenTargetsIn(ws, targets)

	run := func(plan *SparsePlan) map[string][]float32 {
		logits := m.Forward(ids, plan, ws)
		_, dLogits := CrossEntropyIn(ws, logits, flat)
		m.Params().ZeroGrads()
		m.Backward(dLogits, ws)
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
	ws := tensor.NewArena()
	got := m.Forward(x, blocks, blk, ws)

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
	want := m2.Forward(x, nil, 0, ws)
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("sparse subset forward mismatch: %v", d)
	}

	// Backward equivalence for the input gradient.
	dOut := tensor.New(6, dim)
	r.FillNormal(dOut, 1)
	m.Params().ZeroGrads()
	m2.Params().ZeroGrads()
	dx := m.Backward(dOut, ws)
	dx2 := m2.Backward(dOut, ws)
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
	m.Forward(x, []int{0}, 4, tensor.NewArena())
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
	ws := tensor.NewArena()
	flat := m.FlattenTargetsIn(ws, [][]int{{2, 3, 4, 5}})
	logits := m.Forward(ids, nil, ws)
	_, dLogits := CrossEntropyIn(ws, logits, flat)
	ps.ZeroGrads()
	m.Backward(dLogits, ws)

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
	ws := tensor.NewArena()

	var first, last float64
	for step := 0; step < 60; step++ {
		logits := m.Forward(ids, nil, ws)
		loss, dLogits := CrossEntropyIn(ws, logits, m.FlattenTargetsIn(ws, targets))
		if step == 0 {
			first = loss
		}
		last = loss
		ps.ZeroGrads()
		m.Backward(dLogits, ws)
		for _, p := range ps {
			tensor.AddScaledInto(p.W, p.Grad, -0.5)
		}
		ws.Release()
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
	ws := tensor.NewArena()
	heads := a.splitHeads(nil, x, batch, seq, ws)
	if len(heads) != 6 {
		t.Fatalf("splitHeads gave %d buffers", len(heads))
	}
	back := a.mergeHeads(heads, batch, seq, ws)
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
