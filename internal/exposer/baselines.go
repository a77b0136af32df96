package exposer

import (
	"longexposure/internal/sparse"
	"longexposure/internal/tensor"
)

// The Figure 9 baselines: pre-defined sparse-attention masks applied
// uniformly to every head, and the shadowy-sparsity measurements Long
// Exposure is compared against.

// LongformerPattern is the sliding-window + global-token mask of
// Longformer, uniform across heads.
func LongformerPattern() sparse.Pattern {
	return sparse.Pattern{Kind: sparse.KindLocalGlobal, Window: 2, Global: 1}
}

// BigBirdPattern is the window + global + random mask of Big Bird, uniform
// across heads.
func BigBirdPattern() sparse.Pattern {
	return sparse.Pattern{Kind: sparse.KindBigBird, Window: 2, Global: 1, RandomPerRow: 2, Seed: 41}
}

// AttentionSparsity reports the mean sparsity ratio (inactive blocks /
// causal blocks) across head layouts. The causal triangle, not the full
// square, is the denominator: acausal blocks are never computed by anyone.
func AttentionSparsity(layouts []*sparse.Layout) float64 {
	if len(layouts) == 0 {
		return 0
	}
	var total float64
	for _, l := range layouts {
		nb := l.NB()
		causal := nb * (nb + 1) / 2
		total += 1 - float64(l.NNZ())/float64(causal)
	}
	return total / float64(len(layouts))
}

// ShadowyMLPSparsity measures the sparsity of the *overall* activations
// (paper Fig 4d): a neuron counts as inactive only if it is inactive for
// every token in the batch — the logical-AND overlap that creates shadowy
// sparsity.
func ShadowyMLPSparsity(mask *tensor.Tensor) float64 {
	tokens, H := mask.Dim(0), mask.Dim(1)
	inactive := 0
	for h := 0; h < H; h++ {
		everActive := false
		for i := 0; i < tokens; i++ {
			if mask.Data[i*H+h] != 0 {
				everActive = true
				break
			}
		}
		if !everActive {
			inactive++
		}
	}
	return float64(inactive) / float64(H)
}

// PerTokenMLPSparsity measures the mean per-token sparsity (paper Fig 4c):
// the fraction of neurons inactive for each token, averaged — high even
// when the overall sparsity has collapsed into shadow.
func PerTokenMLPSparsity(mask *tensor.Tensor) float64 {
	tokens, H := mask.Dim(0), mask.Dim(1)
	var s float64
	for i := 0; i < tokens; i++ {
		inactive := 0
		for h := 0; h < H; h++ {
			if mask.Data[i*H+h] == 0 {
				inactive++
			}
		}
		s += float64(inactive) / float64(H)
	}
	return s / float64(tokens)
}

// NeuronBlockSparsity reports the block-level sparsity achieved by a filter
// result: 1 − active blocks / total blocks.
func NeuronBlockSparsity(active []int, hiddenDim, blk int) float64 {
	nBlk := (hiddenDim + blk - 1) / blk
	return 1 - float64(len(active))/float64(nBlk)
}
