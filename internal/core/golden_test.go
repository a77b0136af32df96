package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"longexposure/internal/data"
	"longexposure/internal/parallel"
	"longexposure/internal/peft"
	"longexposure/internal/predictor"
	"longexposure/internal/tensor"
)

// goldenSparseRun fine-tunes the sim model for 8 steps with method under
// predicted attention + MLP sparsity (4 heads × batch 2 on a 32-token,
// 8×8-block grid, so batch·heads > heads and the heads' layouts differ) and
// returns the loss bits of every step plus an FNV-1a hash folding the bits
// of every trainable gradient after every step. Under peft.FullFT the
// backbone weights are trainable, so the neuron-block weight-gradient
// kernels run too.
func goldenSparseRun(method peft.Method, workers int) (losses [8]uint64, gradHash uint64) {
	old := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(old)

	cfg := simConfig()
	cfg.Method = method
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

// TestGoldenSparseFineTune pins the sparse fine-tune bit for bit. The LoRA
// values were generated at the commit before nn.MultiHeadAttention moved
// onto the combined multi-head operator (58bcd65), the FullFT values at the
// commit before the neuron-block MLP kernels moved onto the tensor GEMM
// cores (0edb10a), so they prove neither move changed a loss or gradient bit.
func TestGoldenSparseFineTune(t *testing.T) {
	for _, tc := range []struct {
		method       peft.Method
		wantLosses   [8]uint64
		wantGradHash uint64
	}{
		{peft.LoRA, [8]uint64{
			0x4012596ebd4d131e, 0x40126905e17521f7, 0x401218cf0fdd635e, 0x4012ec9ea91374d2,
			0x401250729eb37e9e, 0x401264c512651177, 0x4012140f27ed6438, 0x4012e61c0e876e32,
		}, 0x8f1d39125a10faaf},
		{peft.FullFT, [8]uint64{
			0x4012596ebd4d131e, 0x401241ad3b779cfe, 0x4011e48d53788c9b, 0x40125ecda9f5a353,
			0x4010ecc365f958e8, 0x40113b39c9fc4bfb, 0x401115883ec0d834, 0x40116f423f220a37,
		}, 0x3be86fc5b132448f},
	} {
		for _, workers := range []int{1, 4} {
			losses, gradHash := goldenSparseRun(tc.method, workers)
			if losses != tc.wantLosses || gradHash != tc.wantGradHash {
				t.Errorf("%v workers=%d:\nlosses   %#x\ngradHash %#x\nwant     %#x\n         %#x",
					tc.method, workers, losses, gradHash, tc.wantLosses, tc.wantGradHash)
			}
		}
	}
}
