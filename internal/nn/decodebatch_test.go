package nn

import (
	"fmt"
	"testing"

	"longexposure/internal/parallel"
	"longexposure/internal/tensor"
)

// batchAdapters builds one external adapter of each servable kind for a
// tiny-config base: a trainable prompt, Q/V LoRA and bottleneck adapters,
// with random (non-identity) weights.
func batchAdapters(cfg Config) (ptuning, lora, bottleneck *DecodeAdapter) {
	r := tensor.NewRNG(900)
	rand := func(shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		r.FillNormal(t, 0.2)
		return t
	}
	ptuning = &DecodeAdapter{Prompt: rand(3, cfg.Dim)}
	lora = &DecodeAdapter{Layers: make([]LayerAdapter, cfg.Layers)}
	bottleneck = &DecodeAdapter{Layers: make([]LayerAdapter, cfg.Layers)}
	for li := 0; li < cfg.Layers; li++ {
		lora.Layers[li].Q = &LoRAPair{A: rand(cfg.Dim, 2), B: rand(2, cfg.Dim), Scale: 2}
		lora.Layers[li].V = &LoRAPair{A: rand(cfg.Dim, 2), B: rand(2, cfg.Dim), Scale: 2}
		mk := func() *BottleneckWeights {
			return &BottleneckWeights{DownW: rand(cfg.Dim, 4), DownB: rand(4), UpW: rand(4, cfg.Dim), UpB: rand(cfg.Dim)}
		}
		bottleneck.Layers[li].AttnScaled = mk()
		bottleneck.Layers[li].MLPScaled = mk()
	}
	return ptuning, lora, bottleneck
}

// raggedBatch builds one step of every kind the serving engine stacks: a
// P-Tuning prefill (prompt rows included), a LoRA decode row, a
// bottleneck-adapter decode row, a plain-base row, and — when sparse — a
// row under a plan that gates both attention and the MLP. Decode rows sit
// on caches prefilled one sequence at a time.
func raggedBatch(m *Transformer, sparsePlan bool) []DecodeSeq {
	ptuning, lora, bottleneck := batchAdapters(m.Cfg)
	prefilled := func(ad *DecodeAdapter, prompt ...int) *KVCache {
		c := m.NewKVCache()
		m.DecodeStepCfg(c, prompt, DecodeStepConfig{Adapter: ad})
		return c
	}
	seqs := []DecodeSeq{
		{Cache: m.NewKVCache(), IDs: []int{1, 4, 2}, Adapter: ptuning},
		{Cache: prefilled(lora, 3, 5, 7), IDs: []int{2}, Adapter: lora},
		{Cache: prefilled(bottleneck, 6, 1), IDs: []int{9}, Adapter: bottleneck},
		{Cache: prefilled(nil, 2, 2, 8, 1), IDs: []int{4}},
	}
	if sparsePlan {
		// Position 6 lives in KV block 1 at blk 4; selecting only that block
		// hides positions 0–3. Hidden 32 → neuron blocks 0..7.
		plan := &DecodePlan{Blk: 4, MLPDensity: 0.375, AttnDensity: 0.5}
		for li := 0; li < m.Cfg.Layers; li++ {
			plan.MLP = append(plan.MLP, []int{0, 2, 5})
			plan.Attn = append(plan.Attn, []int{1})
		}
		seqs = append(seqs, DecodeSeq{Cache: prefilled(lora, 1, 2, 3, 4, 5, 6), IDs: []int{7}, Adapter: lora, Plan: plan})
	}
	for i := range seqs {
		seqs[i].Stats = &DecodeStats{}
	}
	return seqs
}

func cloneCache(c *KVCache) *KVCache {
	cp := *c
	cp.layers = make([]kvLayer, len(c.layers))
	for li, l := range c.layers {
		for h := range l.k {
			cp.layers[li].k = append(cp.layers[li].k, append([]float32(nil), l.k[h]...))
			cp.layers[li].v = append(cp.layers[li].v, append([]float32(nil), l.v[h]...))
		}
	}
	return &cp
}

func sameCache(a, b *KVCache) error {
	if a.Len != b.Len {
		return fmt.Errorf("len %d vs %d", a.Len, b.Len)
	}
	for li := range a.layers {
		for h := range a.layers[li].k {
			for j := 0; j < a.Len*a.HeadDim; j++ {
				if a.layers[li].k[h][j] != b.layers[li].k[h][j] || a.layers[li].v[h][j] != b.layers[li].v[h][j] {
					return fmt.Errorf("layer %d head %d element %d differs", li, h, j)
				}
			}
		}
	}
	return nil
}

// TestDecodeBatchMatchesPerSequence pins the stacked step to the
// one-sequence step: every logits row, every cache and every stats
// accumulator of a ragged batch equal (==) what DecodeStepCfg produces for
// that sequence alone on a cloned cache — on a ReLU model with a sparse
// row, and densely on a GeLU model and on int8 and 2:4 compressed bases,
// at one and four workers.
func TestDecodeBatchMatchesPerSequence(t *testing.T) {
	relu := NewTransformer(tinyConfig(), tensor.NewRNG(901))
	gcfg := tinyConfig()
	gcfg.Act = ActGeLU
	gelu := NewTransformer(gcfg, tensor.NewRNG(902))
	trainSteps(relu, 2)
	trainSteps(gelu, 2)
	compressed := func(precision string) *Transformer {
		m := NewTransformer(tinyConfig(), tensor.NewRNG(901))
		trainSteps(m, 2)
		if err := m.Compress(precision); err != nil {
			t.Fatal(err)
		}
		return m
	}

	for _, workers := range []int{1, 4} {
		for _, tc := range []struct {
			name   string
			m      *Transformer
			sparse bool
		}{
			{"relu/sparse", relu, true},
			{"gelu/dense", gelu, false},
			{"int8/dense", compressed(PrecisionI8), false},
			{"nm24/dense", compressed(PrecisionNM24), false},
		} {
			label := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			old := parallel.SetWorkers(workers)
			seqs := raggedBatch(tc.m, tc.sparse)

			want := make([][]float32, len(seqs))
			wantCache := make([]*KVCache, len(seqs))
			wantStats := make([]DecodeStats, len(seqs))
			for i, s := range seqs {
				wantCache[i] = cloneCache(s.Cache)
				logits := tc.m.DecodeStepCfg(wantCache[i], s.IDs, DecodeStepConfig{
					Adapter: s.Adapter, Plan: s.Plan, WS: tensor.NewArena(), Stats: &wantStats[i],
				})
				want[i] = append([]float32(nil), logits.Row(0)...)
			}

			ws := tensor.NewArena()
			got := tc.m.DecodeBatch(seqs, ws)
			parallel.SetWorkers(old)
			if got.Dim(0) != len(seqs) || got.Dim(1) != tc.m.Cfg.Vocab {
				t.Fatalf("%s: logits shape %v, want [%d %d]", label, got.Shape(), len(seqs), tc.m.Cfg.Vocab)
			}
			for i, s := range seqs {
				row := got.Row(i)
				for j := range want[i] {
					if row[j] != want[i][j] {
						t.Fatalf("%s: seq %d logit %d = %v batched, %v alone", label, i, j, row[j], want[i][j])
					}
				}
				if err := sameCache(s.Cache, wantCache[i]); err != nil {
					t.Fatalf("%s: seq %d cache: %v", label, i, err)
				}
				if *s.Stats != wantStats[i] {
					t.Fatalf("%s: seq %d stats %+v batched, %+v alone", label, i, *s.Stats, wantStats[i])
				}
			}
			ws.Release()
		}
	}
}

// TestDecodeBatchSteadyStateAllocs pins the stacked step's memory
// contract: with a warm arena, a B=4 step — LoRA, bottleneck, plain and
// sparse rows, stats recorded — allocates nothing, at one worker and at
// two (a few-row step must not fan out to goroutines).
func TestDecodeBatchSteadyStateAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		old := parallel.SetWorkers(workers)
		m := NewTransformer(tinyConfig(), tensor.NewRNG(903))
		seqs := raggedBatch(m, true)[1:] // the four decode rows
		p0 := make([]int, len(seqs))
		for i := range seqs {
			p0[i] = seqs[i].Cache.Len
		}
		ws := tensor.NewArena()
		step := func() {
			for i := range seqs {
				seqs[i].Cache.Len = p0[i] // rewind: decode the same positions every run
			}
			m.DecodeBatch(seqs, ws)
			ws.Release()
		}
		step() // warm-up: arena fill
		allocs := testing.AllocsPerRun(10, step)
		parallel.SetWorkers(old)
		if allocs != 0 {
			t.Fatalf("workers=%d: B=%d decode step allocates %v/step, want 0", workers, len(seqs), allocs)
		}
	}
}
