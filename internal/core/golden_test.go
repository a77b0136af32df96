package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"longexposure/internal/data"
	"longexposure/internal/parallel"
	"longexposure/internal/predictor"
	"longexposure/internal/tensor"
)

// goldenSparseRun fine-tunes the sim model for 8 steps under predicted
// attention + MLP sparsity (4 heads × batch 2 on a 32-token, 8×8-block
// grid, so batch·heads > heads and the heads' layouts differ) and returns
// the loss bits of every step plus an FNV-1a hash folding the bits of every
// trainable (LoRA) gradient after every step.
func goldenSparseRun(workers int) (losses [8]uint64, gradHash uint64) {
	old := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(old)

	cfg := simConfig()
	cfg.Spec.Config.Heads = 4
	cfg.Seed = 14
	cfg.Prime = true // pre-trained-like statistics: the predicted layouts are sparse and differ by head
	sys := New(cfg)

	rng := tensor.NewRNG(140)
	var examples []data.Example
	for i := 0; i < 8; i++ {
		in := make([]int, 32)
		for j := range in {
			in[j] = data.TokBase + rng.Intn(40)
		}
		examples = append(examples, data.Example{Input: in, Target: in, Label: -1, AnswerPos: -1})
	}
	batches := data.Batches(examples, 2, 32)
	sys.PretrainPredictors([][][]int{batches[0].Inputs, batches[1].Inputs}, predictor.TrainConfig{Epochs: 6, Seed: 3})

	eng := sys.Engine()
	trainable := sys.Model.Params().Trainable()
	h := fnv.New64a()
	var word [4]byte
	for step := range losses {
		loss, _ := eng.Step(batches[step%len(batches)])
		losses[step] = math.Float64bits(loss)
		for _, p := range trainable {
			for _, g := range p.Grad.Data {
				binary.LittleEndian.PutUint32(word[:], math.Float32bits(g))
				h.Write(word[:])
			}
		}
	}
	return losses, h.Sum64()
}

// TestGoldenSparseFineTune pins the sparse fine-tune bit for bit: the
// values below were generated by running this test at the commit before
// nn.MultiHeadAttention moved onto the combined multi-head operator
// (58bcd65), so they prove that move changed no loss and no gradient bit.
func TestGoldenSparseFineTune(t *testing.T) {
	wantLosses := [8]uint64{
		0x4012596ebd4d131e, 0x40126905e17521f7, 0x401218cf0fdd635e, 0x4012ec9ea91374d2,
		0x401250729eb37e9e, 0x401264c512651177, 0x4012140f27ed6438, 0x4012e61c0e876e32,
	}
	const wantGradHash uint64 = 0x8f1d39125a10faaf
	for _, workers := range []int{1, 4} {
		losses, gradHash := goldenSparseRun(workers)
		if losses != wantLosses || gradHash != wantGradHash {
			t.Errorf("workers=%d:\nlosses   %#x\ngradHash %#x\nwant     %#x\n         %#x",
				workers, losses, gradHash, wantLosses, wantGradHash)
		}
	}
}
