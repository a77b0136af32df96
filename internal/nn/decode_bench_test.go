package nn

import (
	"testing"

	"longexposure/internal/tensor"
)

// BenchmarkDecode times greedy generation at the serve workloads' shape:
// the sim config (model.Sim: dim 64, 4 heads, hidden 256), a 24-token
// prompt and 96 tokens. streams=1 runs GenerateCachedCfg; streams=4
// stacks four sequences in one DecodeBatch per token, as the serving
// engine steps them, their prefills included. Compare with -cpu 1.
func BenchmarkDecode(b *testing.B) {
	cfg := Config{Name: "sim", Vocab: 128, Dim: 64, Layers: 4, Heads: 4, Hidden: 256, MaxSeq: 160, Act: ActReLU}
	m := NewTransformer(cfg, tensor.NewRNG(1))
	const promptLen, tokens = 24, 96
	rng := tensor.NewRNG(2)
	var prompts [4][promptLen]int
	for i := range prompts {
		for j := range prompts[i] {
			prompts[i][j] = rng.Intn(cfg.Vocab)
		}
	}
	b.Run("streams=1", func(b *testing.B) {
		sess := DecodeSession{Adapter: m.SelfAdapter(), Cache: m.NewKVCache(), WS: tensor.NewArena()}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sess.Cache.Reset()
			m.GenerateCachedCfg(prompts[0][:], GenerateConfig{MaxTokens: tokens}, sess)
		}
		b.ReportMetric(float64(b.N*tokens)/b.Elapsed().Seconds(), "tokens/s")
	})
	b.Run("streams=4", func(b *testing.B) {
		ws := tensor.NewArena()
		var seqs [4]DecodeSeq
		var next [4][1]int
		for s := range seqs {
			seqs[s].Cache = m.NewKVCache()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for s := range seqs {
				seqs[s].Cache.Reset()
				seqs[s].IDs = prompts[s][:]
			}
			for t := 0; t < tokens; t++ {
				logits := m.DecodeBatch(seqs[:], ws)
				for s := range seqs {
					next[s][0] = pickToken(logits.Row(s), 0, nil)
					seqs[s].IDs = next[s][:]
				}
				ws.Release()
			}
		}
		b.ReportMetric(float64(b.N*len(seqs)*tokens)/b.Elapsed().Seconds(), "tokens/s")
	})
}
