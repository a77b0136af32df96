package nn

import (
	"math"

	"longexposure/internal/parallel"
	"longexposure/internal/tensor"
)

// IgnoreIndex marks target positions excluded from the loss (padding and
// prompt tokens in instruction tuning).
const IgnoreIndex = -1

// CrossEntropy computes the mean softmax cross-entropy of logits
// [tokens, vocab] against integer targets, skipping IgnoreIndex positions,
// and returns the loss together with dLogits (already divided by the count
// of contributing positions). This is the fused loss kernel: probabilities
// are never materialized beyond the gradient buffer.
func CrossEntropy(logits *tensor.Tensor, targets []int) (float64, *tensor.Tensor) {
	return CrossEntropyIn(nil, logits, targets)
}

// CrossEntropyIn is CrossEntropy with dLogits and the per-token loss
// scratch taken from the step workspace (plain allocation when ws is nil).
// The returned gradient is valid until the workspace's Release.
func CrossEntropyIn(ws *tensor.Arena, logits *tensor.Tensor, targets []int) (float64, *tensor.Tensor) {
	tokens, vocab := logits.Dim(0), logits.Dim(1)
	if len(targets) != tokens {
		panic("nn: CrossEntropy targets length mismatch")
	}
	dLogits := tensor.NewIn(ws, tokens, vocab)

	count := 0
	for _, t := range targets {
		if t != IgnoreIndex {
			count++
		}
	}
	if count == 0 {
		return 0, dLogits
	}
	invCount := float32(1 / float64(count))

	losses := tensor.Float64sIn(ws, tokens)
	parallel.ForChunkedArg(tokens, ceArgs{
		logits: logits.Data, grad: dLogits.Data, losses: losses,
		targets: targets, vocab: vocab, invCount: invCount,
	}, crossEntropyChunk)

	var total float64
	for _, l := range losses {
		total += l
	}
	return total / float64(count), dLogits
}

// ceArgs / crossEntropyChunk: static fused-loss body (allocation-free
// parallel fan-out, see parallel.ForChunkedArg).
type ceArgs struct {
	logits, grad []float32
	losses       []float64
	targets      []int
	vocab        int
	invCount     float32
}

func crossEntropyChunk(a ceArgs, lo, hi int) {
	vocab := a.vocab
	for i := lo; i < hi; i++ {
		t := a.targets[i]
		if t == IgnoreIndex {
			continue
		}
		row := a.logits[i*vocab : (i+1)*vocab]
		grad := a.grad[i*vocab : (i+1)*vocab]
		// Stable log-softmax.
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxV))
		}
		logSum := math.Log(sum)
		a.losses[i] = logSum - float64(row[t]-maxV)
		for j, v := range row {
			p := math.Exp(float64(v-maxV)) / sum
			grad[j] = float32(p) * a.invCount
		}
		grad[t] -= a.invCount
	}
}
