package model

import (
	"math"

	"longexposure/internal/nn"
	"longexposure/internal/tensor"
)

// PrimeSparsity re-initializes a freshly-built sim model so its activation
// statistics match those of a *pre-trained* LLM backbone — the substrate the
// paper fine-tunes.
//
// Trained transformers exhibit (a) highly sparse ReLU activations — 90%+ of
// MLP neurons inactive per token, with a heavy-tailed importance profile
// across neurons ("parsimonious learners", paper refs [28][30]) — and
// (b) peaked, structured attention (local windows plus sink tokens) rather
// than the near-uniform scores of a random initialization. Tiny sim models
// cannot acquire these statistics from brief synthetic pre-training, so this
// function induces them directly:
//
//   - FC1 biases are shifted negative, pushing most pre-activations below
//     zero (per-token sparsity ≈ 80-90%);
//   - FC1 neuron blocks receive heavy-tailed (lognormal) gain factors, so
//     block importance is concentrated — what the exposer's threshold
//     filter exploits;
//   - positional embeddings are amplified and Q/K projections are given a
//     temperature boost, yielding peaked attention whose structure is
//     consistent across rows (position-driven), differing per head.
//
// blockSize is the neuron-block granularity the gains are drawn at (use the
// experiment's sparsity block size).
func PrimeSparsity(m *nn.Transformer, rng *tensor.RNG, blockSize int) {
	// Structured, peaked attention. Sinusoidal positional embeddings make
	// position inner products decay with distance |i−j|; making Wk a noisy
	// copy of Wq turns each head's scores into a similarity kernel over a
	// random subspace — peaked near the diagonal with a head-specific
	// bandwidth, the local/banded structure trained LLMs exhibit.
	d := m.Cfg.Dim
	for p := 0; p < m.Cfg.MaxSeq; p++ {
		row := m.PosEmb.Table.W.Data[p*d : (p+1)*d]
		for k := 0; k < d/2; k++ {
			freq := math.Pow(10000, -2*float64(k)/float64(d))
			row[2*k] = float32(0.45 * math.Sin(float64(p)*freq))
			row[2*k+1] = float32(0.45 * math.Cos(float64(p)*freq))
		}
	}
	for _, b := range m.Blocks {
		// Wk ← Wq + ε·Wk (near-symmetric scores), then temperature boost.
		wq, wk := b.Attn.Wq.W.W.Data, b.Attn.Wk.W.W.Data
		for i := range wk {
			wk[i] = wq[i] + 0.35*wk[i]
		}
		tensor.Scale(b.Attn.Wq.W.W, 3.0)
		tensor.Scale(b.Attn.Wk.W.W, 3.0)

		// Sparse, heavy-tailed MLP.
		mlp := b.MLP
		if mlp.Act != nn.ActReLU {
			continue
		}
		h, d := mlp.Hidden, mlp.Dim
		nBlk := (h + blockSize - 1) / blockSize
		for nb := 0; nb < nBlk; nb++ {
			gain := float32(lognormal(rng, 1.1))
			for c := nb * blockSize; c < (nb+1)*blockSize && c < h; c++ {
				row := mlp.W1.W.Data[c*d : (c+1)*d] // column-major: neuron c's weights
				for j := range row {
					row[j] *= gain
				}
				mlp.B1.W.Data[c] = mlp.B1.W.Data[c]*gain - 0.45
			}
		}
	}
}

// lognormal draws exp(σ·z)/exp(σ²/2) — mean-1 lognormal gain.
func lognormal(rng *tensor.RNG, sigma float64) float64 {
	z := rng.Norm()
	return expFast(sigma*z - sigma*sigma/2)
}

func expFast(x float64) float64 {
	// Clamp to keep gains finite and training stable.
	if x > 3 {
		x = 3
	}
	if x < -4 {
		x = -4
	}
	// math.Exp via the standard library.
	return math.Exp(x)
}
