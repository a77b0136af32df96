// The train_step suite measures a full fine-tuning step — forward,
// backward, optimizer update — on a small primed sim config. Its
// allocs_per_op number is what CI's allocation gate locks in: the
// workspace-arena step must stay at (near) zero steady-state allocations.
//
// The suite pins the worker pool to one worker for the duration of each
// measurement: allocs/op is a property of the code path, and with multiple
// workers every parallel region adds per-spawn goroutine allocations —
// noise that would track the runner's core count instead of the memory
// model.
package bench

import (
	"longexposure/internal/data"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/parallel"
	"longexposure/internal/peft"
	"longexposure/internal/tensor"
	"longexposure/internal/train"
)

func init() {
	Register("train_step", trainStepSuite)
}

// trainStepBatch builds a deterministic copy-task batch.
func trainStepBatch(vocab, batchSize, seqLen int, seed uint64) data.Batch {
	rng := tensor.NewRNG(seed)
	var examples []data.Example
	for i := 0; i < batchSize; i++ {
		in := make([]int, seqLen)
		tg := make([]int, seqLen)
		for j := range in {
			in[j] = data.TokBase + rng.Intn(vocab-data.TokBase)
			tg[j] = in[j]
		}
		examples = append(examples, data.Example{Input: in, Target: tg, Label: -1, AnswerPos: -1})
	}
	return data.Batches(examples, batchSize, seqLen)[0]
}

// newTrainStepEngine builds a primed LoRA engine on the small sim config.
func newTrainStepEngine() (*train.Engine, data.Batch) {
	spec := model.SimSmall(nn.ActReLU)
	r := tensor.NewRNG(1234)
	m := nn.NewTransformer(spec.Config, r)
	model.PrimeSparsity(m, r.Split(), 8)
	peft.Apply(m, peft.LoRA, peft.Options{}, r.Split())
	e := &train.Engine{Model: m, Opt: peft.NewAdamW(1e-3, 0)}
	b := trainStepBatch(spec.Config.Vocab, 2, 16, 99)
	return e, b
}

// stepFlops approximates the arithmetic of one step: forward ≈ 2·P·T
// multiply-adds over P parameters and T tokens, backward ≈ 2× forward.
func stepFlops(spec model.Spec, tokens int) int64 {
	return 3 * 2 * spec.ParamCount() * int64(tokens)
}

// trainStepBench is one steady-state fine-tuning step per op on a freshly
// built engine — one worker, warm arena. arm (optional) attaches the
// instruments a suite is gating before the warmup step.
func trainStepBench(name string, arm func(*train.Engine)) Benchmark {
	var e *train.Engine
	var b data.Batch
	step := func() {
		old := parallel.SetWorkers(1)
		e.Step(b)
		parallel.SetWorkers(old)
	}
	return Benchmark{
		Name:  name,
		Flops: stepFlops(model.SimSmall(nn.ActReLU), 2*16),
		Setup: func() {
			e, b = newTrainStepEngine()
			if arm != nil {
				arm(e)
			}
			step() // warmup step 1: arena fill, optimizer state
		},
		Fn: step,
	}
}

func trainStepSuite(o Options) []Benchmark {
	return []Benchmark{trainStepBench("train_step/ws", nil)}
}
