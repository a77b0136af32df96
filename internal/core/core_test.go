package core

import (
	"math"
	"testing"

	"longexposure/internal/data"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/predictor"
	"longexposure/internal/tensor"
)

func simConfig() Config {
	return Config{
		Spec:   model.SimSmall(nn.ActReLU),
		Method: peft.LoRA,
		Blk:    4,
		Seed:   5,
	}
}

func calibBatches(n int) [][][]int {
	rng := tensor.NewRNG(9)
	var out [][][]int
	for i := 0; i < n; i++ {
		row := make([]int, 8)
		for j := range row {
			row[j] = data.TokBase + rng.Intn(40)
		}
		out = append(out, [][]int{row})
	}
	return out
}

func TestSystemLifecycle(t *testing.T) {
	sys := New(simConfig())
	stats := sys.PretrainPredictors(calibBatches(3), predictor.TrainConfig{Epochs: 6})
	if stats.AttnRecall < 0.7 || stats.MLPRecall < 0.7 {
		t.Fatalf("predictor recall too low: %+v", stats)
	}

	eng := sys.Engine()
	rng := tensor.NewRNG(11)
	var examples []data.Example
	for i := 0; i < 16; i++ {
		in := make([]int, 8)
		tg := make([]int, 8)
		for j := range in {
			in[j] = data.TokBase + rng.Intn(40)
			tg[j] = in[j]
		}
		examples = append(examples, data.Example{Input: in, Target: tg, Label: -1, AnswerPos: -1})
	}
	batches := data.Batches(examples, 2, 8)
	res := eng.Run(batches, 2)
	if math.IsNaN(res.FinalLoss()) || res.FinalLoss() <= 0 {
		t.Fatalf("bad final loss %v", res.FinalLoss())
	}
	if res.Times.Predict <= 0 {
		t.Fatal("prediction time not accounted")
	}
}

func TestBaselineSharesInitialWeights(t *testing.T) {
	cfg := simConfig()
	sys := New(cfg)
	base := NewBaseline(cfg)
	ids := [][]int{{1, 2, 3, 4}}
	ws := tensor.NewArena()
	a := sys.Model.Forward(ids, nil, ws)
	b := base.Model.Forward(ids, nil, ws)
	if d := tensor.MaxAbsDiff(a, b); d != 0 {
		t.Fatalf("baseline weights differ: %v", d)
	}
}

func TestDensitiesInUnitRange(t *testing.T) {
	sys := New(simConfig())
	sys.PretrainPredictors(calibBatches(2), predictor.TrainConfig{Epochs: 4})
	attn, mlp := sys.Densities(calibBatches(2))
	if attn <= 0 || attn > 1 {
		t.Fatalf("attention density %v", attn)
	}
	if mlp <= 0 || mlp > 1 {
		t.Fatalf("MLP density %v", mlp)
	}
	// Causal structure bounds attention density: a causal layout covers at
	// most (nb+1)/(2·nb) of the full grid — 0.75 on the seq-8/blk-4 grid
	// used here.
	if attn > 0.75 {
		t.Fatalf("attention density %v exceeds causal bound", attn)
	}
}

func TestAblationSwitches(t *testing.T) {
	cfg := simConfig()
	cfg.DisableAttnSparsity = true
	sys := New(cfg)
	if !sys.Planner.DisableAttn {
		t.Fatal("attention ablation not wired")
	}
	cfg2 := simConfig()
	cfg2.DisableMLPSparsity = true
	if !New(cfg2).Planner.DisableMLP {
		t.Fatal("MLP ablation not wired")
	}
}

func TestGeLUSystemHasNoMLPPredictors(t *testing.T) {
	cfg := simConfig()
	cfg.Spec = model.SimSmall(nn.ActGeLU)
	sys := New(cfg)
	for _, lp := range sys.Predictors.Layers {
		if lp.MLP != nil {
			t.Fatal("GeLU system built MLP predictors")
		}
	}
	_, mlp := sys.Densities(calibBatches(1))
	if mlp != 1 {
		t.Fatalf("GeLU MLP density = %v, want 1 (dense)", mlp)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Spec: model.SimSmall(nn.ActReLU)}.Normalized()
	if c.Blk != 16 || c.PredictorRank != 8 || c.LR != 1e-3 || c.Seed != 1 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}
