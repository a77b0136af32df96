// The generate suite measures autoregressive decoding to the model's full
// MaxSeq on a primed sim config — the serving hot path — comparing the
// KV-cached decode against the naive full-prefix re-run nn.Generate
// performs. One op is one complete
// generation, so tokens/s = emitted tokens / (ns_per_op · 1e-9) and the
// cached-vs-naive ns/op ratio is exactly the tokens/s speedup the
// inference gateway banks per sequence. allocs_per_op locks in the cached
// path's arena discipline next to the naive path's per-token reallocation
// of the whole prefix. batch_b4 runs four generations per op; its ns/op
// against 4 × cached_ws is what the stacked step buys.
package bench

import (
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/parallel"
	"longexposure/internal/peft"
	"longexposure/internal/tensor"
)

func init() {
	Register("generate", generateSuite)
}

// generateModel builds the primed LoRA sim model decoding runs on: the
// same construction path fine-tuning jobs use, so the measured shapes are
// the served shapes.
func generateModel(short bool) (*nn.Transformer, []int) {
	spec := model.Sim(model.OPT1p3B())
	if short {
		spec = model.SimSmall(nn.ActReLU)
	}
	r := tensor.NewRNG(1234)
	m := nn.NewTransformer(spec.Config, r)
	model.PrimeSparsity(m, r.Split(), 8)
	peft.Apply(m, peft.LoRA, peft.Options{}, r.Split())
	prompt := make([]int, 8)
	for i := range prompt {
		prompt[i] = 10 + i
	}
	return m, prompt
}

// decodeStepBench is one single-token KV-cached decode step per op — one
// worker, warm arena, the same cache position decoded every op — wrapped
// in the per-step instrumentation a suite is gating: around receives the
// bare step and the cache, and calls the step exactly once.
func decodeStepBench(name string, arm func(), around func(step func(), cache *nn.KVCache)) Benchmark {
	var (
		m     *nn.Transformer
		cache *nn.KVCache
		ws    *tensor.Arena
		rng   *tensor.RNG
		p0    int
		buf   [1]int
	)
	step := func() {
		logits := m.DecodeStepCfg(cache, buf[:], nn.DecodeStepConfig{WS: ws})
		buf[0] = nn.SampleToken(logits.Row(0), 0, rng)
		ws.Release()
	}
	return Benchmark{
		Name:  name,
		Flops: 2 * model.SimSmall(nn.ActReLU).ParamCount(),
		Setup: func() {
			var prompt []int
			m, prompt = generateModel(true)
			arm()
			cache = m.NewKVCache()
			ws = tensor.NewArena()
			rng = tensor.NewRNG(7)
			old := parallel.SetWorkers(1)
			logits := m.DecodeStepCfg(cache, prompt, nn.DecodeStepConfig{WS: ws}) // prefill
			buf[0] = nn.SampleToken(logits.Row(0), 0, rng)
			ws.Release()
			p0 = cache.Len
			step() // one warm decode step so arena classes exist
			parallel.SetWorkers(old)
		},
		Fn: func() {
			old := parallel.SetWorkers(1)
			cache.Len = p0 // rewind: decode the same position every op
			around(step, cache)
			parallel.SetWorkers(old)
		},
	}
}

// genFlops approximates decode arithmetic per generation: ~2·P multiply
// -adds per token over P parameters for the cached path's per-token cost
// reference (the naive path does the same useful work, just recomputed).
func genFlops(spec model.Spec, tokens int) int64 {
	return 2 * spec.ParamCount() * int64(tokens)
}

func generateSuite(o Options) []Benchmark {
	spec := model.Sim(model.OPT1p3B())
	if o.Short {
		spec = model.SimSmall(nn.ActReLU)
	}
	promptLen := 8
	// Decode to the MaxSeq bound: Generate stops once the model-visible
	// sequence reaches MaxSeq, so MaxTokens just needs to be large enough.
	tokens := spec.Config.MaxSeq - promptLen
	cfg := nn.GenerateConfig{MaxTokens: spec.Config.MaxSeq}
	flops := genFlops(spec, tokens)

	var m *nn.Transformer
	var prompt []int
	setup := func() {
		if m == nil {
			m, prompt = generateModel(o.Short)
		}
	}

	var cache *nn.KVCache
	var ws *tensor.Arena
	// batchB4 decodes four copies of cached_ws's generation in lockstep,
	// one DecodeBatch per token row — the engine's step at batch 4.
	var batch [4]nn.DecodeSeq
	var next [4]int
	batchB4 := func() {
		for i := range batch {
			batch[i].Cache.Reset()
			batch[i].IDs = prompt
		}
		for n := len(prompt); n < m.Cfg.MaxSeq; n++ {
			logits := m.DecodeBatch(batch[:], ws)
			for i := range batch {
				next[i] = nn.SampleToken(logits.Row(i), 0, nil)
				batch[i].IDs = next[i : i+1]
			}
			ws.Release()
		}
	}
	return []Benchmark{
		{
			Name:  "generate/cached_ws",
			Flops: flops,
			Setup: func() {
				setup()
				cache = m.NewKVCache()
				ws = tensor.NewArena()
				m.GenerateCachedCfg(prompt, cfg, nn.DecodeSession{Cache: cache, WS: ws}) // warm the arena
			},
			Fn: func() {
				cache.Reset()
				m.GenerateCachedCfg(prompt, cfg, nn.DecodeSession{Cache: cache, WS: ws})
			},
		},
		{
			Name:  "generate/batch_b4",
			Flops: 4 * flops,
			Setup: func() {
				setup()
				ws = tensor.NewArena()
				for i := range batch {
					batch[i].Cache = m.NewKVCache()
				}
				batchB4() // warm the arena
			},
			Fn: batchB4,
		},
		{
			Name:  "generate/naive",
			Flops: flops,
			Setup: setup,
			Fn: func() {
				m.Generate(prompt, cfg)
			},
		},
	}
}
