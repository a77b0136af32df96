package experiments

import (
	"longexposure/internal/data"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/predictor"
	"longexposure/internal/tensor"
)

// Options tunes experiment cost. Quick mode shrinks step counts and grid
// sizes so the whole suite runs in test/bench budgets; full mode is what
// cmd/longexp uses by default.
type Options struct {
	Quick bool
	Seed  uint64
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 2024
	}
	return o.Seed
}

// pick returns quick when Quick is set, else full.
func (o Options) pick(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

// simSpec returns the sim-scale model used for real measurements.
func (o Options) simSpec(act nn.Activation) model.Spec {
	if o.Quick {
		return model.SimSmall(act)
	}
	base := model.OPT1p3B()
	if act == nn.ActGeLU {
		base = model.GPT2Large()
	}
	return model.Sim(base)
}

// simGeometry returns (batch, seq, blk) for sim-scale runs.
func (o Options) simGeometry() (batch, seq, blk int) {
	if o.Quick {
		return 2, 16, 4
	}
	return 2, 128, 8
}

// e2eBatches builds the E2E-style fine-tuning workload for a spec.
func e2eBatches(spec model.Spec, batch, seq, n int, seed uint64) []data.Batch {
	corpus := data.NewE2ECorpus(spec.Config.Vocab, max(1, seq/6), seed)
	examples := corpus.Generate(n*batch, seed+1)
	return data.Batches(examples, batch, seq)
}

// idsOf extracts the input grids of a few batches (calibration format).
func idsOf(batches []data.Batch, n int) [][][]int {
	var out [][][]int
	for _, b := range batches[:min(n, len(batches))] {
		out = append(out, b.Inputs)
	}
	return out
}

// predictorTrainConfig aliases the predictor training knobs for the
// drivers' convenience.
type predictorTrainConfig = predictor.TrainConfig

// dataTasks lists the Table III tasks.
func dataTasks() []data.Task { return data.Tasks() }

// lmBatchesForCopy builds simple LM batches (identity task) used where the
// workload content does not matter, only its shape.
func lmBatchesForCopy(vocab, batch, seq, n int, seed uint64) []data.Batch {
	rng := tensor.NewRNG(seed)
	var examples []data.Example
	for i := 0; i < n*batch; i++ {
		in := make([]int, seq)
		tg := make([]int, seq)
		for j := range in {
			in[j] = data.TokBase + rng.Intn(vocab-data.TokBase)
			tg[j] = in[j]
		}
		examples = append(examples, data.Example{Input: in, Target: tg, Label: -1, AnswerPos: -1})
	}
	return data.Batches(examples, batch, seq)
}
