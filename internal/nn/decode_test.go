package nn

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"longexposure/internal/tensor"
)

// trainSteps nudges every trainable parameter with a few plain SGD steps on
// a fixed batch, so injected modules (LoRA B starts at zero, adapters start
// at identity) carry non-trivial deltas before decode parity is checked.
func trainSteps(m *Transformer, steps int) {
	ids := [][]int{{2, 5, 3, 7, 2, 5, 3, 7}}
	targets := [][]int{{5, 3, 7, 2, 5, 3, 7, 2}}
	ps := m.Params()
	ws := tensor.NewArena()
	for i := 0; i < steps; i++ {
		logits := m.Forward(ids, nil, ws)
		flat := m.FlattenTargetsIn(ws, targets)
		_, dLogits := CrossEntropyIn(ws, logits, flat)
		ps.ZeroGrads()
		m.Backward(dLogits, ws)
		for _, p := range ps.Trainable() {
			tensor.AddScaledInto(p.W, p.Grad, -0.05)
		}
		ws.Release()
	}
}

// decodeParityModels builds the PEFT variants the cached decode path must
// reproduce: a plain base, LoRA on Q/V, bottleneck adapters, and a
// trainable prompt — each trained a little so the deltas are non-zero.
func decodeParityModels(t *testing.T) map[string]*Transformer {
	t.Helper()
	models := map[string]*Transformer{}

	base := NewTransformer(tinyConfig(), tensor.NewRNG(420))
	trainSteps(base, 3)
	models["base"] = base

	lora := NewTransformer(tinyConfig(), tensor.NewRNG(421))
	for li, b := range lora.Blocks {
		name := fmt.Sprintf("layer%d.attn", li)
		b.Attn.Wq.AddLoRA(name+".q_proj", 2, 4, tensor.NewRNG(uint64(430+li)))
		b.Attn.Wv.AddLoRA(name+".v_proj", 2, 4, tensor.NewRNG(uint64(440+li)))
	}
	trainSteps(lora, 3)
	models["lora"] = lora

	adpt := NewTransformer(tinyConfig(), tensor.NewRNG(422))
	for li, b := range adpt.Blocks {
		b.AdptA = NewAdapter(fmt.Sprintf("layer%d.adapter_attn", li), adpt.Cfg.Dim, 4, tensor.NewRNG(uint64(450+li)))
		b.AdptM = NewAdapter(fmt.Sprintf("layer%d.adapter_mlp", li), adpt.Cfg.Dim, 4, tensor.NewRNG(uint64(460+li)))
	}
	trainSteps(adpt, 3)
	models["adapter"] = adpt

	prompt := NewTransformer(tinyConfig(), tensor.NewRNG(423))
	prompt.EnablePrompt(3, tensor.NewRNG(470))
	trainSteps(prompt, 3)
	models["ptuning"] = prompt

	gelu := tinyConfig()
	gelu.Act = ActGeLU
	gm := NewTransformer(gelu, tensor.NewRNG(424))
	trainSteps(gm, 3)
	models["gelu"] = gm

	return models
}

// TestDecodeBitIdenticalToGenerate pins the KV-cached decode path to the
// naive full-prefix re-run: identical token sequences, across PEFT
// variants, greedy and tempered sampling, with and without the workspace
// arena. Exact (==) comparison — the decode path recomputes the same
// floating-point operations in the same order.
func TestDecodeBitIdenticalToGenerate(t *testing.T) {
	prompt := []int{1, 4, 2, 9}
	for name, m := range decodeParityModels(t) {
		for _, temp := range []float64{0, 0.8} {
			for _, withWS := range []bool{false, true} {
				label := fmt.Sprintf("%s/temp=%.1f/ws=%v", name, temp, withWS)
				cfg := GenerateConfig{MaxTokens: 10, Temperature: temp, RNG: tensor.NewRNG(777)}
				want := m.Generate(prompt, cfg)

				var ws *tensor.Arena
				if withWS {
					ws = tensor.NewArena()
				}
				cfg.RNG = tensor.NewRNG(777) // same sampling stream
				got := m.GenerateCachedCfg(prompt, cfg, DecodeSession{WS: ws})
				if len(got) != len(want) {
					t.Fatalf("%s: cached emitted %d tokens, naive %d (%v vs %v)", label, len(got), len(want), got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: token %d differs: cached %v, naive %v", label, i, got, want)
					}
				}
			}
		}
	}
}

// TestDecodeParityAtKernelTails pins decode-vs-Forward logit bit parity
// where the attention GEMMs run their tails: head dim 12 (one 8-lane group
// and four scalar lanes), MaxSeq 37 (the transposed K cache's row stride
// is no multiple of 8), and prefills of 7, 8, 9 and 17 rows, each decoded
// on to 36 positions, so every row's span of visible keys crosses the 8-
// and 32-lane boundaries.
func TestDecodeParityAtKernelTails(t *testing.T) {
	cfg := Config{Name: "tails", Vocab: 19, Dim: 24, Layers: 2, Heads: 2, Hidden: 40, MaxSeq: 37, Act: ActReLU}
	m := NewTransformer(cfg, tensor.NewRNG(910))
	trainSteps(m, 2)
	rng := tensor.NewRNG(911)
	ids := make([]int, cfg.MaxSeq-1)
	for i := range ids {
		ids[i] = rng.Intn(cfg.Vocab)
	}
	wsD, wsF := tensor.NewArena(), tensor.NewArena()
	for _, prefill := range []int{7, 8, 9, 17} {
		cache := m.NewKVCache()
		got := m.DecodeStepCfg(cache, ids[:prefill], DecodeStepConfig{WS: wsD})
		for n := prefill; ; n++ {
			want := m.Forward([][]int{ids[:n]}, nil, wsF).Row(n - 1)
			for j, v := range got.Row(0) {
				if v != want[j] {
					t.Fatalf("prefill %d, position %d: logit %d = %v decoded, %v by Forward", prefill, n-1, j, v, want[j])
				}
			}
			wsD.Release()
			wsF.Release()
			if n == len(ids) {
				break
			}
			got = m.DecodeStepCfg(cache, ids[n:n+1], DecodeStepConfig{WS: wsD})
		}
	}
}

// TestDecodeStepIncrementalMatchesPrefill pins that feeding a prompt token
// by token produces the same logits as one prefill call — the continuous
// batching scheduler relies on chunk-size independence.
func TestDecodeStepIncrementalMatchesPrefill(t *testing.T) {
	m := NewTransformer(tinyConfig(), tensor.NewRNG(480))
	prompt := []int{3, 1, 4, 1, 5}

	oneShot := m.DecodeStepCfg(m.NewKVCache(), prompt, DecodeStepConfig{})

	cache := m.NewKVCache()
	var last *tensor.Tensor
	for _, tok := range prompt {
		last = m.DecodeStepCfg(cache, []int{tok}, DecodeStepConfig{})
	}
	for i := range oneShot.Data {
		if oneShot.Data[i] != last.Data[i] {
			t.Fatalf("logit %d differs between one-shot and token-by-token prefill", i)
		}
	}
}

// TestDecodeRespectsMaxSeq mirrors TestGenerateRespectsMaxSeq on the cached
// path, prompt rows included.
func TestDecodeRespectsMaxSeq(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxSeq = 6
	m := NewTransformer(cfg, tensor.NewRNG(481))
	naive := m.Generate([]int{1, 2, 3}, GenerateConfig{MaxTokens: 50})
	cached := m.GenerateCachedCfg([]int{1, 2, 3}, GenerateConfig{MaxTokens: 50}, DecodeSession{})
	if len(cached) != len(naive) {
		t.Fatalf("cached emitted %d tokens at MaxSeq, naive %d", len(cached), len(naive))
	}
}

// TestConcurrentDecodeSharedBase decodes many sequences concurrently on
// one shared frozen base, each with a different external adapter, and
// checks every stream against its naive single-threaded reference — the
// serving concurrency model, run under -race by CI.
func TestConcurrentDecodeSharedBase(t *testing.T) {
	base := NewTransformer(tinyConfig(), tensor.NewRNG(490))

	// Distinct external LoRA adapters over the same untouched base.
	mkAdapter := func(seed uint64) *DecodeAdapter {
		ad := &DecodeAdapter{Layers: make([]LayerAdapter, len(base.Blocks))}
		r := tensor.NewRNG(seed)
		for li := range base.Blocks {
			mk := func() *LoRAPair {
				A := tensor.New(base.Cfg.Dim, 2)
				B := tensor.New(2, base.Cfg.Dim)
				r.FillNormal(A, 0.1)
				r.FillNormal(B, 0.1)
				return &LoRAPair{A: A, B: B, Scale: 2}
			}
			ad.Layers[li].Q = mk()
			ad.Layers[li].V = mk()
		}
		return ad
	}

	type job struct {
		ad     *DecodeAdapter
		prompt []int
		want   []int
	}
	var jobs []job
	for i := 0; i < 4; i++ {
		ad := mkAdapter(uint64(500 + i))
		prompt := []int{1 + i, 2, 3 + i}
		// Naive reference: a throwaway clone of the base with the adapter's
		// LoRA weights attached, so Generate runs the training forward.
		ref := NewTransformer(tinyConfig(), tensor.NewRNG(490))
		for li, b := range ref.Blocks {
			name := fmt.Sprintf("layer%d.attn", li)
			b.Attn.Wq.AddLoRA(name+".q_proj", 2, 4, tensor.NewRNG(1))
			b.Attn.Wv.AddLoRA(name+".v_proj", 2, 4, tensor.NewRNG(1))
			copy(b.Attn.Wq.LoRAA.W.Data, ad.Layers[li].Q.A.Data)
			copy(b.Attn.Wq.LoRAB.W.Data, ad.Layers[li].Q.B.Data)
			copy(b.Attn.Wv.LoRAA.W.Data, ad.Layers[li].V.A.Data)
			copy(b.Attn.Wv.LoRAB.W.Data, ad.Layers[li].V.B.Data)
		}
		want := ref.Generate(prompt, GenerateConfig{MaxTokens: 8})
		jobs = append(jobs, job{ad: ad, prompt: prompt, want: want})
	}

	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for rep := 0; rep < 2; rep++ { // two rounds: caches/arenas fully private
		for ji := range jobs {
			wg.Add(1)
			go func(ji int) {
				defer wg.Done()
				j := jobs[ji]
				got := base.GenerateCachedCfg(j.prompt, GenerateConfig{MaxTokens: 8}, DecodeSession{Adapter: j.ad, WS: tensor.NewArena()})
				if len(got) != len(j.want) {
					errs[ji] = fmt.Errorf("seq %d: got %v, want %v", ji, got, j.want)
					return
				}
				for i := range got {
					if got[i] != j.want[i] {
						errs[ji] = fmt.Errorf("seq %d: got %v, want %v", ji, got, j.want)
						return
					}
				}
			}(ji)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadParamsRoundTrip pins the structure-free checkpoint loader the
// registry uses: Save → LoadParams preserves names, shapes and bits.
func TestLoadParamsRoundTrip(t *testing.T) {
	m := NewTransformer(tinyConfig(), tensor.NewRNG(495))
	ps := m.Params()
	var buf bytes.Buffer
	if err := ps.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadParams(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("loaded %d params, want %d", len(got), len(ps))
	}
	for i, p := range ps {
		g := got[i]
		if g.Name != p.Name {
			t.Fatalf("param %d name %q, want %q", i, g.Name, p.Name)
		}
		if d := tensor.MaxAbsDiff(g.W, p.W); d != 0 {
			t.Fatalf("param %s data differs by %v", p.Name, d)
		}
	}
}

// TestLoRAFreezeADeltaIncluded guards the delta-extraction contract: with
// LoRA-FA the frozen A matrix must still travel with the artifact (see
// peft.Delta), otherwise the served adapter is missing half its weights.
// The decode path is exercised with an A-frozen model to make the failure
// observable end to end.
func TestDecodeLoRAFreezeAParity(t *testing.T) {
	m := NewTransformer(tinyConfig(), tensor.NewRNG(496))
	for li, b := range m.Blocks {
		name := fmt.Sprintf("layer%d.attn", li)
		b.Attn.Wq.AddLoRA(name+".q_proj", 2, 4, tensor.NewRNG(uint64(600+li)))
		b.Attn.Wv.AddLoRA(name+".v_proj", 2, 4, tensor.NewRNG(uint64(610+li)))
		b.Attn.Wq.LoRAA.Frozen = true
		b.Attn.Wv.LoRAA.Frozen = true
	}
	trainSteps(m, 3)
	prompt := []int{2, 7, 1}
	want := m.Generate(prompt, GenerateConfig{MaxTokens: 6})
	got := m.GenerateCachedCfg(prompt, GenerateConfig{MaxTokens: 6}, DecodeSession{WS: tensor.NewArena()})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LoRA-FA decode diverges: got %v, want %v", got, want)
		}
	}
}
