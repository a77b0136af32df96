package nn

import (
	"math"
	"testing"

	"longexposure/internal/tensor"
)

// checkGrad compares an analytic gradient against central differences for a
// sample of indices of w. loss must recompute the full forward pass from
// scratch on every call.
func checkGrad(t *testing.T, name string, loss func() float64, w, grad *tensor.Tensor, indices []int) {
	t.Helper()
	const eps = 1e-2
	for _, i := range indices {
		orig := w.Data[i]
		w.Data[i] = orig + eps
		fp := loss()
		w.Data[i] = orig - eps
		fm := loss()
		w.Data[i] = orig
		num := (fp - fm) / (2 * eps)
		ana := float64(grad.Data[i])
		diff := math.Abs(num - ana)
		scale := math.Max(math.Abs(num), math.Abs(ana))
		if diff > 5e-2*scale+2e-3 {
			t.Errorf("%s[%d]: numeric %.6f vs analytic %.6f", name, i, num, ana)
		}
	}
}

func sampleIndices(r *tensor.RNG, n, count int) []int {
	if count >= n {
		count = n
	}
	idx := make([]int, count)
	for i := range idx {
		idx[i] = r.Intn(n)
	}
	return idx
}

func cloneGrads(ps ParamSet) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.Grad.Clone()
	}
	return out
}

// checkWorkspaceParity is the fresh-vs-warm arena regression harness every
// gradcheck test runs through: pass performs one forward + ZeroGrads +
// backward with the given workspace and returns the output and the input
// gradient. A pass on a fresh arena (newly made, zeroed storage)
// establishes the reference; two passes on one reused arena (the second
// exercising recycled buffers) must reproduce output, input gradient, and
// every parameter gradient bit-for-bit — so no layer reads a stale buffer.
func checkWorkspaceParity(t *testing.T, params ParamSet, pass func(ws *tensor.Arena) (y, dx *tensor.Tensor)) (yRef, dxRef *tensor.Tensor) {
	t.Helper()
	yRef, dxRef = pass(tensor.NewArena())
	gradsRef := cloneGrads(params)

	ws := tensor.NewArena()
	for round := 0; round < 2; round++ {
		y, dx := pass(ws)
		if d := tensor.MaxAbsDiff(yRef, y); d != 0 {
			t.Fatalf("workspace round %d: output differs by %v", round, d)
		}
		if dxRef != nil {
			if d := tensor.MaxAbsDiff(dxRef, dx); d != 0 {
				t.Fatalf("workspace round %d: input gradient differs by %v", round, d)
			}
		}
		for i, p := range params {
			if d := tensor.MaxAbsDiff(gradsRef[i], p.Grad); d != 0 {
				t.Fatalf("workspace round %d: %s gradient differs by %v", round, p.Name, d)
			}
		}
		ws.Release()
	}

	// Leave the reference analytic gradients in place for the numeric
	// check that follows (the warm passes reproduced them exactly).
	return yRef, dxRef
}

func TestLinearGradCheck(t *testing.T) {
	r := tensor.NewRNG(100)
	l := NewLinear("lin", 6, 5, r)
	l.AddLoRA("lin", 2, 4, r)
	// Make LoRA B nonzero so its gradient path is exercised.
	r.FillNormal(l.LoRAB.W, 0.1)
	x := tensor.New(4, 6)
	r.FillNormal(x, 1)
	target := tensor.New(4, 5)
	r.FillNormal(target, 1)

	// Scalar loss: 0.5·‖y − target‖².
	loss := func() float64 {
		y := l.Forward(x, tensor.NewArena())
		var s float64
		for i := range y.Data {
			dv := float64(y.Data[i] - target.Data[i])
			s += 0.5 * dv * dv
		}
		return s
	}

	// Analytic gradients, fresh and warm arenas bit-identical.
	_, dx := checkWorkspaceParity(t, l.Params(), func(ws *tensor.Arena) (*tensor.Tensor, *tensor.Tensor) {
		y := l.Forward(x, ws)
		dy := y.Clone()
		tensor.AddScaledInto(dy, target, -1)
		l.Params().ZeroGrads()
		return y.Clone(), l.Backward(dy, ws).Clone()
	})

	checkGrad(t, "W", loss, l.W.W, l.W.Grad, sampleIndices(r, l.W.W.Len(), 10))
	checkGrad(t, "B", loss, l.B.W, l.B.Grad, sampleIndices(r, l.B.W.Len(), 5))
	checkGrad(t, "loraA", loss, l.LoRAA.W, l.LoRAA.Grad, sampleIndices(r, l.LoRAA.W.Len(), 8))
	checkGrad(t, "loraB", loss, l.LoRAB.W, l.LoRAB.Grad, sampleIndices(r, l.LoRAB.W.Len(), 8))
	checkGrad(t, "x", loss, x, dx, sampleIndices(r, x.Len(), 10))
}

func TestLayerNormGradCheck(t *testing.T) {
	r := tensor.NewRNG(101)
	ln := NewLayerNorm("ln", 7)
	r.FillNormal(ln.Gamma.W, 0.3)
	for i := range ln.Gamma.W.Data {
		ln.Gamma.W.Data[i] += 1
	}
	x := tensor.New(3, 7)
	r.FillNormal(x, 2)
	target := tensor.New(3, 7)
	r.FillNormal(target, 1)

	loss := func() float64 {
		y := ln.Forward(x, tensor.NewArena())
		var s float64
		for i := range y.Data {
			dv := float64(y.Data[i] - target.Data[i])
			s += 0.5 * dv * dv
		}
		return s
	}

	_, dx := checkWorkspaceParity(t, ln.Params(), func(ws *tensor.Arena) (*tensor.Tensor, *tensor.Tensor) {
		y := ln.Forward(x, ws)
		dy := y.Clone()
		tensor.AddScaledInto(dy, target, -1)
		ln.Params().ZeroGrads()
		return y.Clone(), ln.Backward(dy, ws).Clone()
	})

	checkGrad(t, "gamma", loss, ln.Gamma.W, ln.Gamma.Grad, sampleIndices(r, 7, 7))
	checkGrad(t, "beta", loss, ln.Beta.W, ln.Beta.Grad, sampleIndices(r, 7, 7))
	checkGrad(t, "x", loss, x, dx, sampleIndices(r, x.Len(), 10))
}

func TestCrossEntropyGradCheck(t *testing.T) {
	r := tensor.NewRNG(102)
	logits := tensor.New(4, 6)
	r.FillNormal(logits, 1)
	targets := []int{2, IgnoreIndex, 0, 5}

	lossVal, dLogits := CrossEntropyIn(tensor.NewArena(), logits, targets)
	if lossVal <= 0 {
		t.Fatalf("loss = %v", lossVal)
	}

	// A reused arena must reproduce loss and gradient exactly, including on
	// recycled buffers.
	ws := tensor.NewArena()
	for round := 0; round < 2; round++ {
		lw, dw := CrossEntropyIn(ws, logits, targets)
		if lw != lossVal {
			t.Fatalf("round %d: workspace loss %v vs %v", round, lw, lossVal)
		}
		if d := tensor.MaxAbsDiff(dLogits, dw); d != 0 {
			t.Fatalf("round %d: workspace dLogits differs by %v", round, d)
		}
		ws.Release()
	}

	loss := func() float64 {
		l, _ := CrossEntropyIn(tensor.NewArena(), logits, targets)
		return l
	}
	checkGrad(t, "logits", loss, logits, dLogits, sampleIndices(r, logits.Len(), 15))

	// Ignored row must have zero gradient.
	for j := 0; j < 6; j++ {
		if dLogits.At(1, j) != 0 {
			t.Fatalf("ignored position has gradient %v", dLogits.At(1, j))
		}
	}
}

func TestTransformerFullGradCheck(t *testing.T) {
	r := tensor.NewRNG(103)
	cfg := Config{Name: "tiny", Vocab: 11, Dim: 8, Layers: 2, Heads: 2, Hidden: 12, MaxSeq: 8, Act: ActReLU}
	m := NewTransformer(cfg, r)
	// Re-initialize the embeddings at unit scale: with the production 0.02
	// init, LayerNorm's 1/σ amplification makes the finite-difference step
	// a ~50% relative perturbation and the numeric gradient meaningless.
	r.FillNormal(m.TokEmb.Table.W, 1)
	r.FillNormal(m.PosEmb.Table.W, 1)

	ids := [][]int{{1, 3, 5, 7}, {2, 4, 6, 8}}
	targets := [][]int{{3, 5, 7, 9}, {4, 6, 8, 10}}
	flat := m.FlattenTargetsIn(tensor.NewArena(), targets)

	loss := func() float64 {
		ws := tensor.NewArena()
		l, _ := CrossEntropyIn(ws, m.Forward(ids, nil, ws), flat)
		return l
	}

	checkWorkspaceParity(t, m.Params(), func(ws *tensor.Arena) (*tensor.Tensor, *tensor.Tensor) {
		logits := m.Forward(ids, nil, ws)
		_, dLogits := CrossEntropyIn(ws, logits, flat)
		m.Params().ZeroGrads()
		m.Backward(dLogits, ws)
		return logits.Clone(), nil
	})

	// Spot-check a parameter from every layer family.
	cases := []*Parameter{
		m.TokEmb.Table,
		m.PosEmb.Table,
		m.Blocks[0].Attn.Wq.W,
		m.Blocks[0].Attn.Wo.W,
		m.Blocks[1].MLP.W1,
		m.Blocks[1].MLP.W2,
		m.Blocks[0].LN1.Gamma,
		m.Blocks[1].MLP.B1,
		m.LNF.Beta,
		m.Head.W,
	}
	for _, p := range cases {
		checkGrad(t, p.Name, loss, p.W, p.Grad, sampleIndices(r, p.W.Len(), 6))
	}
}

func TestTransformerPromptGradCheck(t *testing.T) {
	r := tensor.NewRNG(104)
	cfg := Config{Name: "tiny", Vocab: 9, Dim: 8, Layers: 1, Heads: 2, Hidden: 12, MaxSeq: 10, Act: ActReLU}
	m := NewTransformer(cfg, r)
	m.EnablePrompt(2, r)
	r.FillNormal(m.TokEmb.Table.W, 1)
	r.FillNormal(m.PosEmb.Table.W, 1)
	r.FillNormal(m.Prompt.W, 1)
	m.Params().FreezeAll()
	m.Prompt.Frozen = false

	ids := [][]int{{1, 2, 3, 4}}
	targets := [][]int{{2, 3, 4, 5}}
	flat := m.FlattenTargetsIn(tensor.NewArena(), targets)
	if len(flat) != 6 || flat[0] != IgnoreIndex || flat[1] != IgnoreIndex {
		t.Fatalf("FlattenTargetsIn = %v", flat)
	}

	loss := func() float64 {
		ws := tensor.NewArena()
		l, _ := CrossEntropyIn(ws, m.Forward(ids, nil, ws), flat)
		return l
	}
	checkWorkspaceParity(t, m.Params(), func(ws *tensor.Arena) (*tensor.Tensor, *tensor.Tensor) {
		logits := m.Forward(ids, nil, ws)
		_, dLogits := CrossEntropyIn(ws, logits, flat)
		m.Params().ZeroGrads()
		m.Backward(dLogits, ws)
		return logits.Clone(), nil
	})
	checkGrad(t, "prompt", loss, m.Prompt.W, m.Prompt.Grad, sampleIndices(r, m.Prompt.W.Len(), 8))
}

func TestAdapterGradCheckAndIdentityInit(t *testing.T) {
	r := tensor.NewRNG(105)
	a := NewAdapter("adpt", 6, 3, r)
	x := tensor.New(4, 6)
	r.FillNormal(x, 1)

	// Identity at init: Up.W is zero, so y = x + Up.B (bias is zero too).
	y := a.Forward(x, tensor.NewArena())
	if d := tensor.MaxAbsDiff(y, x); d > 1e-6 {
		t.Fatalf("fresh adapter is not identity: diff %v", d)
	}

	// Perturb so gradients are non-trivial.
	r.FillNormal(a.Up.W.W, 0.3)
	target := tensor.New(4, 6)
	r.FillNormal(target, 1)
	loss := func() float64 {
		out := a.Forward(x, tensor.NewArena())
		var s float64
		for i := range out.Data {
			dv := float64(out.Data[i] - target.Data[i])
			s += 0.5 * dv * dv
		}
		return s
	}
	_, dx := checkWorkspaceParity(t, a.Params(), func(ws *tensor.Arena) (*tensor.Tensor, *tensor.Tensor) {
		out := a.Forward(x, ws)
		dy := out.Clone()
		tensor.AddScaledInto(dy, target, -1)
		a.Params().ZeroGrads()
		return out.Clone(), a.Backward(dy, ws).Clone()
	})

	checkGrad(t, "down.W", loss, a.Down.W.W, a.Down.W.Grad, sampleIndices(r, a.Down.W.W.Len(), 8))
	checkGrad(t, "up.W", loss, a.Up.W.W, a.Up.W.Grad, sampleIndices(r, a.Up.W.W.Len(), 8))
	checkGrad(t, "x", loss, x, dx, sampleIndices(r, x.Len(), 8))
}

func TestAttentionIsolatedGradCheck(t *testing.T) {
	r := tensor.NewRNG(300)
	a := NewMultiHeadAttention("attn", 8, 2, r)
	batch, seq := 1, 4
	x := tensor.New(batch*seq, 8)
	r.FillNormal(x, 1)
	target := tensor.New(batch*seq, 8)
	r.FillNormal(target, 1)

	loss := func() float64 {
		y := a.Forward(x, batch, seq, nil, 0, tensor.NewArena())
		var s float64
		for i := range y.Data {
			dv := float64(y.Data[i] - target.Data[i])
			s += 0.5 * dv * dv
		}
		return s
	}
	_, dx := checkWorkspaceParity(t, a.Params(), func(ws *tensor.Arena) (*tensor.Tensor, *tensor.Tensor) {
		y := a.Forward(x, batch, seq, nil, 0, ws)
		dy := y.Clone()
		tensor.AddScaledInto(dy, target, -1)
		a.Params().ZeroGrads()
		return y.Clone(), a.Backward(dy, ws).Clone()
	})

	checkGrad(t, "Wq", loss, a.Wq.W.W, a.Wq.W.Grad, sampleIndices(r, 64, 12))
	checkGrad(t, "Wk", loss, a.Wk.W.W, a.Wk.W.Grad, sampleIndices(r, 64, 12))
	checkGrad(t, "Wv", loss, a.Wv.W.W, a.Wv.W.Grad, sampleIndices(r, 64, 12))
	checkGrad(t, "Wo", loss, a.Wo.W.W, a.Wo.W.Grad, sampleIndices(r, 64, 12))
	checkGrad(t, "x", loss, x, dx, sampleIndices(r, x.Len(), 16))
}

func TestMLPIsolatedGradCheck(t *testing.T) {
	r := tensor.NewRNG(301)
	m := NewMLP("mlp", 6, 12, ActReLU, r)
	x := tensor.New(4, 6)
	r.FillNormal(x, 1)
	target := tensor.New(4, 6)
	r.FillNormal(target, 1)
	loss := func() float64 {
		y := m.Forward(x, nil, 0, tensor.NewArena())
		var s float64
		for i := range y.Data {
			dv := float64(y.Data[i] - target.Data[i])
			s += 0.5 * dv * dv
		}
		return s
	}
	_, dx := checkWorkspaceParity(t, m.Params(), func(ws *tensor.Arena) (*tensor.Tensor, *tensor.Tensor) {
		y := m.Forward(x, nil, 0, ws)
		dy := y.Clone()
		tensor.AddScaledInto(dy, target, -1)
		m.Params().ZeroGrads()
		return y.Clone(), m.Backward(dy, ws).Clone()
	})
	checkGrad(t, "W1", loss, m.W1.W, m.W1.Grad, sampleIndices(r, m.W1.W.Len(), 12))
	checkGrad(t, "W2", loss, m.W2.W, m.W2.Grad, sampleIndices(r, m.W2.W.Len(), 12))
	checkGrad(t, "x", loss, x, dx, sampleIndices(r, x.Len(), 12))
}

func TestBlockIsolatedGradCheck(t *testing.T) {
	r := tensor.NewRNG(302)
	b := NewTransformerBlock("blk", 8, 2, 16, ActReLU, r)
	batch, seq := 1, 4
	x := tensor.New(batch*seq, 8)
	r.FillNormal(x, 1)
	target := tensor.New(batch*seq, 8)
	r.FillNormal(target, 1)

	loss := func() float64 {
		y := b.Forward(x, batch, seq, nil, tensor.NewArena())
		var s float64
		for i := range y.Data {
			dv := float64(y.Data[i] - target.Data[i])
			s += 0.5 * dv * dv
		}
		return s
	}
	_, dx := checkWorkspaceParity(t, b.Params(), func(ws *tensor.Arena) (*tensor.Tensor, *tensor.Tensor) {
		y := b.Forward(x, batch, seq, nil, ws)
		dy := y.Clone()
		tensor.AddScaledInto(dy, target, -1)
		b.Params().ZeroGrads()
		return y.Clone(), b.Backward(dy, ws).Clone()
	})

	checkGrad(t, "ln1.gamma", loss, b.LN1.Gamma.W, b.LN1.Gamma.Grad, sampleIndices(r, 8, 8))
	checkGrad(t, "Wq", loss, b.Attn.Wq.W.W, b.Attn.Wq.W.Grad, sampleIndices(r, 64, 10))
	checkGrad(t, "W1", loss, b.MLP.W1.W, b.MLP.W1.Grad, sampleIndices(r, b.MLP.W1.W.Len(), 10))
	checkGrad(t, "x", loss, x, dx, sampleIndices(r, x.Len(), 16))
}
