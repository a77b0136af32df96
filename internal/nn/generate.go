package nn

import (
	"math"

	"longexposure/internal/tensor"
)

// GenerateConfig tunes autoregressive decoding.
type GenerateConfig struct {
	MaxTokens   int     // tokens to emit (default 16)
	Temperature float64 // 0 = greedy; >0 samples from the tempered softmax
	// StopToken stops decoding once this token id has been emitted.
	// Values <= 0 — including the zero value — disable the check, so a
	// zero-value config never silently stops on token 0 (which is TokPad
	// in every corpus here, never a legitimate stop).
	StopToken int
	RNG       *tensor.RNG
}

// Generate decodes autoregressively from a prompt, re-running the full
// prefix each step (no KV cache — fine-tuning, not serving, is this
// repository's subject; the sim scale keeps this cheap) on one arena,
// released after every token. Returns the generated continuation (prompt
// excluded).
func (m *Transformer) Generate(prompt []int, cfg GenerateConfig) []int {
	if cfg.MaxTokens == 0 {
		cfg.MaxTokens = 16
	}
	if cfg.RNG == nil {
		cfg.RNG = tensor.NewRNG(1)
	}
	seq := append([]int(nil), prompt...)
	ws := tensor.NewArena()
	var out []int
	for t := 0; t < cfg.MaxTokens; t++ {
		if m.TotalSeq(len(seq)) >= m.Cfg.MaxSeq {
			break
		}
		logits := m.Forward([][]int{seq}, nil, ws)
		next := pickToken(logits.Row(logits.Dim(0)-1), cfg.Temperature, cfg.RNG)
		ws.Release()
		out = append(out, next)
		if cfg.StopToken > 0 && next == cfg.StopToken {
			break
		}
		seq = append(seq, next)
	}
	return out
}

// pickToken applies greedy or tempered sampling to a logit row.
func pickToken(logits []float32, temperature float64, rng *tensor.RNG) int {
	if temperature <= 0 {
		best, bi := logits[0], 0
		for i, v := range logits[1:] {
			if v > best {
				best, bi = v, i+1
			}
		}
		return bi
	}
	// Stable tempered softmax sampling.
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	probs := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		p := math.Exp(float64(v-maxV) / temperature)
		probs[i] = p
		sum += p
	}
	u := rng.Float64() * sum
	var acc float64
	for i, p := range probs {
		acc += p
		if u <= acc {
			return i
		}
	}
	return len(logits) - 1
}
