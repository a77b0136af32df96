package predictor

import (
	"longexposure/internal/nn"
	"longexposure/internal/tensor"
)

// LayerSample captures one layer's predictor signals from a dense forward:
// the sublayer inputs, the ground-truth attention probabilities, and the
// MLP activation mask. All tensors are deep copies — they outlive the
// arena the forward ran on.
type LayerSample struct {
	AttnInput *tensor.Tensor   // LN1 output [batch*seq, dim]
	Probs     []*tensor.Tensor // per (batch, head) [seq, seq]
	MLPInput  *tensor.Tensor   // LN2 output [batch*seq, dim]
	Mask      *tensor.Tensor   // ReLU mask [batch*seq, hidden]; nil for GeLU
	Hidden    *tensor.Tensor   // post-ReLU activations (importance signal); nil for GeLU
}

// Sample is one collected batch: the per-layer signals plus shape info.
type Sample struct {
	Batch, Seq int // Seq includes any prompt tokens
	Layers     []LayerSample
}

// Collect runs dense forward passes over the given batches and snapshots
// every layer's predictor training signals — the offline data-collection
// step of §V-B ("pre-trained offline using data collected from model
// inference"). The forwards share one arena, released after each batch's
// signals are cloned out of it.
func Collect(m *nn.Transformer, batches [][][]int) []Sample {
	var out []Sample
	ws := tensor.NewArena()
	for _, ids := range batches {
		batch := len(ids)
		seq := m.TotalSeq(len(ids[0]))
		m.Forward(ids, nil, ws)
		s := Sample{Batch: batch, Seq: seq}
		for _, blk := range m.Blocks {
			ls := LayerSample{
				AttnInput: blk.LN1Out(ws).Clone(),
				MLPInput:  blk.LN2Out(ws).Clone(),
			}
			ls.Probs = blk.Attn.DenseProbs(ws) // copies: they outlive ws
			if mask := blk.MLP.ActivationMask(ws); mask != nil {
				ls.Mask = mask.Clone()
				ls.Hidden = blk.MLP.HiddenActivations(ws).Clone()
			}
			s.Layers = append(s.Layers, ls)
		}
		ws.Release()
		out = append(out, s)
	}
	return out
}
