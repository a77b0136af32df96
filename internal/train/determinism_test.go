package train

import (
	"bytes"
	"math"
	"testing"

	"longexposure/internal/data"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/tensor"
)

// TestEngineFullyDeterministic: identical seeds must reproduce the exact
// loss sequence — the reproducibility guarantee every experiment rests on.
func TestEngineFullyDeterministic(t *testing.T) {
	run := func() []float64 {
		r := tensor.NewRNG(77)
		m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
		peft.Apply(m, peft.LoRA, peft.Options{}, r.Split())
		e := &Engine{Model: m, Opt: peft.NewAdamW(1e-3, 0)}
		batches := copyTaskBatches(64, 2, 8, 6, 9)
		return e.Run(batches, 2).Losses
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: %v != %v", i, a[i], b[i])
		}
	}
}

// TestCheckpointResumeMidTraining: saving and restoring weights must let a
// second engine continue with the identical loss trajectory.
func TestCheckpointResumeMidTraining(t *testing.T) {
	mk := func() *nn.Transformer {
		r := tensor.NewRNG(78)
		m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
		peft.Apply(m, peft.FullFT, peft.Options{}, r.Split())
		return m
	}
	batches := copyTaskBatches(64, 2, 8, 8, 10)

	// Reference: run 4 steps straight with SGD (stateless optimizer, so a
	// weight checkpoint fully captures training state).
	ref := &Engine{Model: mk(), Opt: peft.NewSGD(0.1, 0)}
	var refLosses []float64
	for _, b := range batches[:4] {
		l, _ := ref.Step(b)
		refLosses = append(refLosses, l)
	}

	// Same first 2 steps, checkpoint, restore into a fresh model, resume.
	first := &Engine{Model: mk(), Opt: peft.NewSGD(0.1, 0)}
	for _, b := range batches[:2] {
		first.Step(b)
	}
	var buf bytes.Buffer
	if err := first.Model.Params().Save(&buf); err != nil {
		t.Fatal(err)
	}
	resumed := &Engine{Model: mk(), Opt: peft.NewSGD(0.1, 0)}
	if err := resumed.Model.Params().Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, b := range batches[2:4] {
		l, _ := resumed.Step(b)
		if math.Abs(l-refLosses[2+i]) > 1e-6 {
			t.Fatalf("resumed step %d: loss %v vs reference %v", i, l, refLosses[2+i])
		}
	}
}

func TestCrossEntropyAllIgnored(t *testing.T) {
	logits := tensor.New(3, 5)
	targets := []int{nn.IgnoreIndex, nn.IgnoreIndex, nn.IgnoreIndex}
	loss, grad := nn.CrossEntropyIn(tensor.NewArena(), logits, targets)
	if loss != 0 {
		t.Fatalf("loss = %v for fully-ignored batch", loss)
	}
	if tensor.L2Norm(grad) != 0 {
		t.Fatal("gradient nonzero for fully-ignored batch")
	}
}

func TestEvaluateTaskSkipsOverlongExamples(t *testing.T) {
	r := tensor.NewRNG(79)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	// Example whose answer position falls outside the evaluation window.
	long := data.Example{
		Input:     make([]int, 30),
		Target:    make([]int, 30),
		Label:     0,
		Choices:   []int{4, 5},
		AnswerPos: 29,
	}
	for i := range long.Target {
		long.Target[i] = nn.IgnoreIndex
	}
	acc := EvaluateTask(m, []data.Example{long}, 8, nil)
	if acc != 0 {
		t.Fatalf("overlong example scored %v", acc)
	}
}

func TestPhaseTimesArithmetic(t *testing.T) {
	a := PhaseTimes{Forward: 10, Backward: 20, Optim: 5, Predict: 1}
	b := a.Add(a)
	if b.Forward != 20 || b.Total() != 72 {
		t.Fatalf("Add wrong: %+v", b)
	}
	c := b.Scale(2)
	if c.Forward != 10 || c.Predict != 1 {
		t.Fatalf("Scale wrong: %+v", c)
	}
	if a.Scale(0).Forward != 10 {
		t.Fatal("Scale(0) should be identity")
	}
}
