package nn

import "longexposure/internal/tensor"

// Embedding is a lookup table [vocab, dim]. The transformer uses two:
// token embeddings and learned positional embeddings. Transformer.EmbedRows
// reads both tables and Transformer.Backward scatters their gradients.
type Embedding struct {
	Vocab, Dim int
	Table      *Parameter
}

// NewEmbedding constructs an embedding with N(0, 0.02) init.
func NewEmbedding(name string, vocab, dim int, rng *tensor.RNG) *Embedding {
	e := &Embedding{
		Vocab: vocab,
		Dim:   dim,
		Table: NewParameter(name+".weight", vocab, dim),
	}
	rng.FillNormal(e.Table.W, 0.02)
	return e
}

// Params returns the table.
func (e *Embedding) Params() ParamSet { return ParamSet{e.Table} }

// accumulateRow adds src into row r of p's gradient when p is trainable.
func accumulateRow(p *Parameter, r int, src []float32) {
	if p.Frozen {
		return
	}
	dst := p.Grad.Data[r*len(src) : (r+1)*len(src)]
	for j, v := range src {
		dst[j] += v
	}
}
