package longexposure

// Integration tests over the public API: the library surface a downstream
// user programs against.

import (
	"math"
	"strings"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	spec := SimSmall(ActReLU)
	corpus := NewE2ECorpus(spec.Config.Vocab, 2, 42)
	batches := Batches(corpus.Generate(16, 1), 2, 16)
	calib := [][][]int{batches[0].Inputs}

	cfg := Config{Spec: spec, Method: LoRA, Blk: 4, Seed: 1, Prime: true}
	base := NewBaseline(cfg)
	bres := base.Run(batches, 1)

	sys := New(cfg)
	stats := sys.PretrainPredictors(calib, TrainConfig{Epochs: 5})
	if stats.AttnRecall <= 0 || stats.MLPRecall <= 0 {
		t.Fatalf("predictor stats empty: %+v", stats)
	}
	lres := sys.Engine().Run(batches, 1)

	if math.IsNaN(bres.FinalLoss()) || math.IsNaN(lres.FinalLoss()) {
		t.Fatal("NaN losses")
	}
	// Same seed → identical first-step loss (sparsity only kicks in via
	// the planner; step 0 forward differs only by masked-out mass).
	if math.Abs(bres.Losses[0]-lres.Losses[0]) > 0.5 {
		t.Fatalf("arms diverged at step 0: %v vs %v", bres.Losses[0], lres.Losses[0])
	}
}

func TestPublicMethodsAndSpecs(t *testing.T) {
	for _, m := range []Method{FullFT, LoRA, Adapter, BitFit, PTuning} {
		if m.String() == "" {
			t.Fatal("method unnamed")
		}
	}
	for _, spec := range []Spec{OPT125M(), OPT350M(), OPT1p3B(), OPT2p7B(), GPT2Large(), GPT2XL()} {
		if spec.ParamCount() <= 0 {
			t.Fatalf("%s has no parameters", spec)
		}
	}
}

func TestPublicTaskEvaluation(t *testing.T) {
	tasks := Tasks()
	if len(tasks) != 5 {
		t.Fatalf("want 5 Table III tasks, got %d", len(tasks))
	}
	spec := SimSmall(ActReLU)
	sys := New(Config{Spec: spec, Method: LoRA, Blk: 4, Seed: 2})
	ex := tasks[0].Generate(8, spec.Config.Vocab, 3)
	acc := EvaluateTask(sys.Model, ex, 16, nil)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of range", acc)
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 13 {
		t.Fatalf("registry too small: %v", ids)
	}
	r, err := RunExperiment("table2", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Markdown(), "OPT-1.3B") {
		t.Fatal("table2 markdown missing models")
	}
	if _, err := RunExperiment("bogus", ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
