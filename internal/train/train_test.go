package train

import (
	"math"
	"testing"

	"longexposure/internal/data"
	"longexposure/internal/exposer"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/predictor"
	"longexposure/internal/tensor"
)

func copyTaskBatches(vocab, batchSize, seqLen, n int, seed uint64) []data.Batch {
	rng := tensor.NewRNG(seed)
	var examples []data.Example
	for i := 0; i < n; i++ {
		in := make([]int, seqLen)
		tg := make([]int, seqLen)
		for j := range in {
			in[j] = data.TokBase + rng.Intn(vocab-data.TokBase)
			tg[j] = in[j] // predict the input token itself
		}
		examples = append(examples, data.Example{Input: in, Target: tg, Label: -1, AnswerPos: -1})
	}
	return data.Batches(examples, batchSize, seqLen)
}

func TestEngineStepPhases(t *testing.T) {
	r := tensor.NewRNG(1)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	peft.Apply(m, peft.LoRA, peft.Options{}, r)
	e := &Engine{Model: m, Opt: peft.NewAdamW(1e-3, 0)}

	batches := copyTaskBatches(64, 2, 8, 2, 2)
	loss, times := e.Step(batches[0])
	if loss <= 0 || math.IsNaN(loss) {
		t.Fatalf("loss = %v", loss)
	}
	if times.Forward <= 0 || times.Backward <= 0 || times.Optim <= 0 {
		t.Fatalf("phase times not recorded: %+v", times)
	}
	if times.Predict != 0 {
		t.Fatalf("dense engine recorded predict time: %v", times.Predict)
	}
	if times.Total() != times.Forward+times.Backward+times.Optim {
		t.Fatal("Total inconsistent")
	}
}

func TestEngineRunLearns(t *testing.T) {
	r := tensor.NewRNG(3)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	peft.Apply(m, peft.FullFT, peft.Options{}, r)
	e := &Engine{Model: m, Opt: peft.NewAdamW(3e-3, 0), ClipNorm: 1}

	batches := copyTaskBatches(64, 4, 8, 16, 4)
	res := e.Run(batches, 8)
	if res.Steps != 8*len(batches) {
		t.Fatalf("steps = %d", res.Steps)
	}
	first := res.Losses[0]
	last := res.FinalLoss()
	if last > first*0.6 {
		t.Fatalf("loss did not drop: %v → %v", first, last)
	}
}

func TestEngineWithLongExposurePlanner(t *testing.T) {
	r := tensor.NewRNG(5)
	spec := model.SimSmall(nn.ActReLU)
	m := nn.NewTransformer(spec.Config, r)
	peft.Apply(m, peft.LoRA, peft.Options{}, r)

	// Offline: collect inference data, train predictors.
	exp := exposer.New(exposer.Config{Blk: 4})
	batches := copyTaskBatches(64, 2, 8, 8, 6)
	var collectIDs [][][]int
	for _, b := range batches[:2] {
		collectIDs = append(collectIDs, b.Inputs)
	}
	samples := predictor.Collect(m, collectIDs)
	set := predictor.NewSet(spec.Config, exp, 4, r)
	set.Train(samples, spec.Config.Heads, predictor.TrainConfig{Epochs: 8})

	rp := set.Planner()
	e := &Engine{Model: m, Opt: peft.NewAdamW(1e-3, 0), Planner: rp}
	loss, times := e.Step(batches[0])
	if math.IsNaN(loss) {
		t.Fatal("sparse step produced NaN loss")
	}
	if times.Predict <= 0 {
		t.Fatal("predict phase not recorded")
	}
}

// TestSparseTrainingTracksDense is the Figure 11 claim in miniature:
// fine-tuning under predicted sparsity must converge to a loss close to the
// dense run's, while random sparse patterns must not.
func TestSparseTrainingTracksDense(t *testing.T) {
	spec := model.SimSmall(nn.ActReLU)
	batches := copyTaskBatches(64, 2, 8, 12, 7)

	runArm := func(mk func(m *nn.Transformer, r *tensor.RNG) nn.Planner) float64 {
		r := tensor.NewRNG(42) // identical init across arms
		m := nn.NewTransformer(spec.Config, r)
		peft.Apply(m, peft.LoRA, peft.Options{}, tensor.NewRNG(43))
		var planner nn.Planner
		if mk != nil {
			planner = mk(m, tensor.NewRNG(44))
		}
		e := &Engine{Model: m, Opt: peft.NewAdamW(2e-3, 0), Planner: planner}
		return e.Run(batches, 6).FinalLoss()
	}

	dense := runArm(nil)
	le := runArm(func(m *nn.Transformer, r *tensor.RNG) nn.Planner {
		exp := exposer.New(exposer.Config{Blk: 4})
		samples := predictor.Collect(m, [][][]int{batches[0].Inputs, batches[1].Inputs})
		set := predictor.NewSet(spec.Config, exp, 4, r)
		set.Train(samples, spec.Config.Heads, predictor.TrainConfig{Epochs: 8})
		return set.Planner()
	})

	if le > dense*1.35+0.1 {
		t.Fatalf("Long Exposure loss %v strays from dense %v", le, dense)
	}
}

func TestEvaluateTaskAboveChanceAfterTraining(t *testing.T) {
	r := tensor.NewRNG(8)
	spec := model.SimSmall(nn.ActReLU)
	m := nn.NewTransformer(spec.Config, r)
	peft.Apply(m, peft.FullFT, peft.Options{}, r)

	task, _ := data.TaskByName("Winogrande")
	trainEx := task.Generate(256, spec.Config.Vocab, 100)
	testEx := task.Generate(64, spec.Config.Vocab, 200)
	seqLen := 8
	batches := data.Batches(trainEx, 8, seqLen)

	before := EvaluateTask(m, testEx, seqLen, nil)
	e := &Engine{Model: m, Opt: peft.NewAdamW(5e-3, 0), ClipNorm: 1}
	e.Run(batches, 15)
	after := EvaluateTask(m, testEx, seqLen, nil)

	if after < 0.75 {
		t.Fatalf("accuracy after training = %.3f (before %.3f)", after, before)
	}
}

func TestStderrOfAccuracy(t *testing.T) {
	if s := StderrOfAccuracy(0.5, 100); math.Abs(s-0.05) > 1e-9 {
		t.Fatalf("stderr = %v", s)
	}
	if StderrOfAccuracy(0.5, 0) != 0 {
		t.Fatal("n=0 should give 0")
	}
}

func TestCloneModelPreservesFunction(t *testing.T) {
	r := tensor.NewRNG(9)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	peft.Apply(m, peft.LoRA, peft.Options{}, r)
	clone := CloneModel(m, tensor.NewRNG(10))

	ids := [][]int{{1, 2, 3, 4}}
	ws := tensor.NewArena()
	a := m.Forward(ids, nil, ws)
	b := clone.Forward(ids, nil, ws)
	if d := tensor.MaxAbsDiff(a, b); d != 0 {
		t.Fatalf("clone diverges: %v", d)
	}
	// Freeze flags preserved.
	mp, cp := m.Params(), clone.Params()
	for i := range mp {
		if mp[i].Frozen != cp[i].Frozen {
			t.Fatalf("freeze flag mismatch at %s", mp[i].Name)
		}
	}
}

func TestDataParallelReplicasStaySynchronized(t *testing.T) {
	r := tensor.NewRNG(11)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	peft.Apply(m, peft.LoRA, peft.Options{}, r)
	dp := NewDataParallel(m, 2, func() peft.Optimizer { return peft.NewAdamW(1e-3, 0) }, r)

	batches := copyTaskBatches(64, 4, 8, 8, 12)
	for _, b := range batches {
		loss, elapsed := dp.Step(b)
		if math.IsNaN(loss) || elapsed <= 0 {
			t.Fatalf("bad step: loss %v elapsed %v", loss, elapsed)
		}
	}
	if drift := dp.MaxReplicaDrift(); drift != 0 {
		t.Fatalf("replicas drifted by %v", drift)
	}
}

// TestDataParallelReplicasShareFrozenBase pins the shared frozen base:
// every replica reads the source's frozen weight storage, owns its
// trainable weights, and replicas still train in lockstep.
func TestDataParallelReplicasShareFrozenBase(t *testing.T) {
	r := tensor.NewRNG(17)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	peft.Apply(m, peft.LoRA, peft.Options{}, r)
	dp := NewDataParallel(m, 3, func() peft.Optimizer { return peft.NewAdamW(1e-3, 0) }, r)

	src := m.Params()
	for w := 1; w < len(dp.Workers); w++ {
		for i, p := range dp.Workers[w].Params() {
			shared := &p.W.Data[0] == &src[i].W.Data[0]
			if shared != p.Frozen {
				t.Fatalf("replica %d %s (frozen %v): weight storage shared = %v", w, p.Name, p.Frozen, shared)
			}
			if p == src[i] || &p.Grad.Data[0] == &src[i].Grad.Data[0] {
				t.Fatalf("replica %d %s shares its Parameter or gradient with the source", w, p.Name)
			}
		}
	}
	for _, b := range copyTaskBatches(64, 3, 8, 3, 18) {
		dp.Step(b)
	}
	if drift := dp.MaxReplicaDrift(); drift != 0 {
		t.Fatalf("replicas drifted by %v", drift)
	}
}

func TestDataParallelMatchesSingleWorkerLoss(t *testing.T) {
	mkModel := func() *nn.Transformer {
		r := tensor.NewRNG(13)
		m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
		peft.Apply(m, peft.LoRA, peft.Options{}, tensor.NewRNG(14))
		return m
	}
	batches := copyTaskBatches(64, 4, 8, 8, 15)

	// Single engine.
	e := &Engine{Model: mkModel(), Opt: peft.NewAdamW(1e-3, 0)}
	var singleLoss float64
	for _, b := range batches {
		l, _ := e.Step(b)
		singleLoss = l
	}

	// Two workers. Gradient averaging over shards is not bit-identical to
	// the single-worker full-batch gradient (loss normalization differs per
	// shard), but losses must track closely.
	dp := NewDataParallel(mkModel(), 2, func() peft.Optimizer { return peft.NewAdamW(1e-3, 0) }, tensor.NewRNG(15))
	var dpLoss float64
	for _, b := range batches {
		dpLoss, _ = dp.Step(b)
	}
	if math.Abs(singleLoss-dpLoss) > 0.25*singleLoss {
		t.Fatalf("single %.4f vs data-parallel %.4f", singleLoss, dpLoss)
	}
}

func TestDataParallelBadShardPanics(t *testing.T) {
	r := tensor.NewRNG(16)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	dp := NewDataParallel(m, 2, func() peft.Optimizer { return peft.NewSGD(0.1, 0) }, r)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd batch across 2 workers")
		}
	}()
	dp.Step(copyTaskBatches(64, 3, 8, 3, 17)[0])
}
