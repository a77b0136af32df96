package predictor

import (
	"math"
	"testing"

	"longexposure/internal/exposer"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

func TestDownsampleBlockMeans(t *testing.T) {
	// 1 batch, 4 tokens, dim 2, blk 2 → 2 pooled rows of means.
	x := tensor.FromSlice([]float32{
		1, 2,
		3, 4,
		10, 20,
		30, 40,
	}, 4, 2)
	pooled := Downsample(x, 1, 4, 2)
	if len(pooled) != 1 {
		t.Fatalf("got %d pooled batches", len(pooled))
	}
	want := []float32{2, 3, 20, 30}
	for i, v := range want {
		if pooled[0].Data[i] != v {
			t.Fatalf("pooled[%d] = %v, want %v", i, pooled[0].Data[i], v)
		}
	}
}

func TestDownsamplePerBatchIndependent(t *testing.T) {
	r := tensor.NewRNG(1)
	x := tensor.New(2*6, 3)
	r.FillNormal(x, 1)
	pooled := Downsample(x, 2, 6, 3)
	if len(pooled) != 2 || pooled[0].Dim(0) != 2 || pooled[0].Dim(1) != 3 {
		t.Fatalf("pooled shapes wrong: %d batches, %v", len(pooled), pooled[0].Shape())
	}
	// Batch 1's first block mean must use rows 6..8.
	var want float32
	for tk := 6; tk < 9; tk++ {
		want += x.At(tk, 0)
	}
	want /= 3
	if math.Abs(float64(pooled[1].At(0, 0)-want)) > 1e-5 {
		t.Fatal("batch 1 pooled from wrong rows")
	}
}

// TestMLPPredictorLearnsLinearStructure: when block activity is a linear
// threshold function of the input, the predictor must recover it with high
// recall — the §V-B training pipeline end to end.
func TestMLPPredictorLearnsLinearStructure(t *testing.T) {
	r := tensor.NewRNG(2)
	dim, hidden, blk := 16, 64, 8
	nBlk := hidden / blk

	// Hidden "true" direction per block.
	trueW := tensor.New(dim, nBlk)
	r.FillNormal(trueW, 1)

	mkTarget := func(tokens int, seed uint64) MLPTarget {
		rr := tensor.NewRNG(seed)
		x := tensor.New(tokens, dim)
		rr.FillNormal(x, 1)
		s := tensor.MatMul(x, trueW)
		y := tensor.New(tokens, nBlk)
		for i := range s.Data {
			if s.Data[i] > 0 {
				y.Data[i] = 1
			}
		}
		return MLPTarget{X: x, Y: y}
	}

	var train []MLPTarget
	for i := 0; i < 6; i++ {
		train = append(train, mkTarget(32, uint64(10+i)))
	}
	p := NewMLPPredictor(dim, hidden, blk, r)
	loss := p.TrainMLP(train, TrainConfig{Epochs: 60, LR: 0.05, NoiseStd: 0.02})
	if loss <= 0 || math.IsNaN(loss) {
		t.Fatalf("training loss = %v", loss)
	}

	// Held-out evaluation.
	test := mkTarget(32, 99)
	pred := p.Predict(test.X)
	recall, precision := RecallPrecision(pred, test.Y)
	if recall < 0.95 {
		t.Fatalf("recall = %.3f, want ≥ 0.95 (precision %.3f)", recall, precision)
	}
}

// TestAttnPredictorLearnsLowRankStructure: targets generated by a true
// low-rank score function must be recoverable.
func TestAttnPredictorLearnsLowRankStructure(t *testing.T) {
	r := tensor.NewRNG(3)
	dim, rank, nb := 12, 4, 8

	trueQ := tensor.New(dim, rank)
	trueK := tensor.New(dim, rank)
	r.FillNormal(trueQ, 1)
	r.FillNormal(trueK, 1)

	mkTarget := func(seed uint64) AttnTarget {
		rr := tensor.NewRNG(seed)
		xd := tensor.New(nb, dim)
		rr.FillNormal(xd, 1)
		s := tensor.MatMulTB(tensor.MatMul(xd, trueQ), tensor.MatMul(xd, trueK))
		mask := tensor.New(nb, nb)
		for i := 0; i < nb; i++ {
			mask.Set(1, i, i)
			for j := 0; j < i; j++ {
				if s.At(i, j) > 0 {
					mask.Set(1, i, j)
				}
			}
		}
		return AttnTarget{Pooled: xd, Masks: []*tensor.Tensor{mask}}
	}

	var targets []AttnTarget
	for i := 0; i < 48; i++ {
		targets = append(targets, mkTarget(uint64(20+i)))
	}
	p := NewAttnPredictor(dim, 1, rank, 4, r)
	loss := p.TrainAttn(targets, TrainConfig{Epochs: 40, LR: 0.02, NoiseStd: 0.02, PosWeight: 8})
	if math.IsNaN(loss) {
		t.Fatal("training diverged")
	}

	// Recall on a held-out sample: rebuild the mask layout and compare.
	test := mkTarget(77)
	x := tensor.New(nb*4, dim) // expand pooled rows back to a fake sequence
	for i := 0; i < nb; i++ {
		for tk := 0; tk < 4; tk++ {
			copy(x.Data[(i*4+tk)*dim:(i*4+tk+1)*dim], test.Pooled.Data[i*dim:(i+1)*dim])
		}
	}
	masks := p.PredictMasks(x, 1, nb*4)
	needed := sparse.NewLayout(nb, func(br, bc int) bool {
		return bc <= br && test.Masks[0].At(br, bc) > 0
	})
	if rec := MaskRecall(masks[0], needed); rec < 0.8 {
		t.Fatalf("held-out mask recall = %.3f", rec)
	}
}

func TestRecallPrecisionMath(t *testing.T) {
	// 4 blocks; blocks 0,1 needed; predicted 1,2.
	y := tensor.FromSlice([]float32{
		1, 0, 0, 0,
		0, 1, 0, 0,
	}, 2, 4)
	rec, prec := RecallPrecision([]int{1, 2}, y)
	if rec != 0.5 {
		t.Fatalf("recall = %v", rec)
	}
	if prec != 0.5 {
		t.Fatalf("precision = %v", prec)
	}
	// Nothing needed → recall 1 by convention.
	rec, _ = RecallPrecision([]int{0}, tensor.New(2, 4))
	if rec != 1 {
		t.Fatalf("empty-needs recall = %v", rec)
	}
}

func TestPredictNeverEmpty(t *testing.T) {
	r := tensor.NewRNG(4)
	p := NewMLPPredictor(8, 32, 8, r)
	// Drive all scores strongly negative.
	p.Wa.Zero()
	for i := range p.Bias {
		p.Bias[i] = -100
	}
	x := tensor.New(4, 8)
	r.FillNormal(x, 1)
	if got := p.Predict(x); len(got) != 1 {
		t.Fatalf("degenerate predict returned %v", got)
	}
}

func TestCollectShapesAndCloning(t *testing.T) {
	r := tensor.NewRNG(5)
	spec := model.SimSmall(nn.ActReLU)
	m := nn.NewTransformer(spec.Config, r)
	batches := [][][]int{
		{{1, 2, 3, 4}, {5, 6, 7, 8}},
		{{2, 4, 6, 8}},
	}
	samples := Collect(m, batches)
	if len(samples) != 2 {
		t.Fatalf("collected %d samples", len(samples))
	}
	s0 := samples[0]
	if s0.Batch != 2 || s0.Seq != 4 || len(s0.Layers) != spec.Config.Layers {
		t.Fatalf("sample shape wrong: %+v", s0)
	}
	ls := s0.Layers[0]
	if ls.AttnInput.Dim(0) != 8 || len(ls.Probs) != 2*spec.Config.Heads || ls.Mask == nil {
		t.Fatal("layer sample incomplete")
	}
	// Cloned: running another forward must not change collected tensors.
	before := ls.AttnInput.Clone()
	m.Forward([][]int{{9, 9, 9, 9}}, nil, tensor.NewArena())
	if d := tensor.MaxAbsDiff(before, ls.AttnInput); d != 0 {
		t.Fatal("collected tensors alias model caches")
	}
}

func TestCollectGeLUHasNoMask(t *testing.T) {
	r := tensor.NewRNG(6)
	m := nn.NewTransformer(model.SimSmall(nn.ActGeLU).Config, r)
	samples := Collect(m, [][][]int{{{1, 2, 3, 4}}})
	if samples[0].Layers[0].Mask != nil {
		t.Fatal("GeLU model produced a ReLU mask")
	}
}

func TestSetTrainAndRuntimePlanner(t *testing.T) {
	r := tensor.NewRNG(7)
	spec := model.SimSmall(nn.ActReLU)
	m := nn.NewTransformer(spec.Config, r)
	exp := exposer.New(exposer.Config{Blk: 4})
	set := NewSet(spec.Config, exp, 4, r)
	if set.Layers[0].MLP == nil {
		t.Fatal("ReLU model should get MLP predictors")
	}

	batches := [][][]int{{{1, 2, 3, 4, 5, 6, 7, 8}}, {{8, 7, 6, 5, 4, 3, 2, 1}}}
	samples := Collect(m, batches)
	stats := set.Train(samples, spec.Config.Heads, TrainConfig{Epochs: 10})
	if stats.AttnRecall < 0.8 || stats.MLPRecall < 0.8 {
		t.Fatalf("training recall too low: attn %.3f mlp %.3f", stats.AttnRecall, stats.MLPRecall)
	}

	// The planner must produce valid plans and account its time.
	rp := set.Planner()
	logits := m.Forward(batches[0], rp, tensor.NewArena())
	if logits.HasNaN() {
		t.Fatal("sparse forward produced NaN")
	}
	if rp.TakeElapsed() <= 0 {
		t.Fatal("planner did not record prediction time")
	}
	if rp.TakeElapsed() != 0 {
		t.Fatal("TakeElapsed did not reset")
	}
}

func TestRuntimePlannerAblationSwitches(t *testing.T) {
	r := tensor.NewRNG(8)
	spec := model.SimSmall(nn.ActReLU)
	exp := exposer.New(exposer.Config{Blk: 4})
	set := NewSet(spec.Config, exp, 4, r)
	rp := set.Planner()
	rp.DisableAttn = true
	x := tensor.New(8, spec.Config.Dim)
	if l, _ := rp.Layer(0).PlanAttention(x, 1, 8); l != nil {
		t.Fatal("DisableAttn ignored")
	}
	rp2 := set.Planner()
	rp2.DisableMLP = true
	if b, _ := rp2.Layer(0).PlanMLP(x, 1, 8); b != nil {
		t.Fatal("DisableMLP ignored")
	}
}

func TestSetGeLUSkipsMLPPredictors(t *testing.T) {
	r := tensor.NewRNG(9)
	spec := model.SimSmall(nn.ActGeLU)
	exp := exposer.New(exposer.Config{Blk: 4})
	set := NewSet(spec.Config, exp, 4, r)
	for _, lp := range set.Layers {
		if lp.MLP != nil {
			t.Fatal("GeLU model got an MLP predictor")
		}
	}
	// PlanMLP must fall back to dense.
	rp := set.Planner()
	x := tensor.New(8, spec.Config.Dim)
	if b, _ := rp.Layer(0).PlanMLP(x, 1, 8); b != nil {
		t.Fatal("GeLU PlanMLP not dense")
	}
}
