package infer

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"longexposure/internal/nn"
	"longexposure/internal/peft"
	"longexposure/internal/tensor"
)

func testConfig() nn.Config {
	return nn.Config{Name: "infer-test", Vocab: 24, Dim: 16, Layers: 2, Heads: 2, Hidden: 32, MaxSeq: 32, Act: nn.ActReLU}
}

// trainedPEFT builds a model from the base seed, applies the method, and
// runs a few SGD steps so the delta is non-trivial. The returned model's
// backbone still equals a fresh base built from the same seed (PEFT
// freezes it), which is what serving relies on.
func trainedPEFT(t *testing.T, method peft.Method, seed uint64) *nn.Transformer {
	t.Helper()
	m := nn.NewTransformer(testConfig(), tensor.NewRNG(seed))
	peft.Apply(m, method, peft.Options{LoRARank: 2, Bottleneck: 4, PromptTokens: 3}, tensor.NewRNG(seed+1))
	ids := [][]int{{2, 5, 3, 7, 2, 5, 3, 7}}
	targets := [][]int{{5, 3, 7, 2, 5, 3, 7, 2}}
	ps := m.Params()
	ws := tensor.NewArena()
	for i := 0; i < 4; i++ {
		logits := m.Forward(ids, nil, ws)
		flat := m.FlattenTargetsIn(ws, targets)
		_, dLogits := nn.CrossEntropyIn(ws, logits, flat)
		ps.ZeroGrads()
		m.Backward(dLogits, ws)
		for _, p := range ps.Trainable() {
			tensor.AddScaledInto(p.W, p.Grad, -0.05)
		}
		ws.Release()
	}
	return m
}

// compiled extracts the delta, round-trips it through the LEXP encoding
// the registry uses, and compiles it for serving — the full artifact path.
func compiled(t *testing.T, m *nn.Transformer, method peft.Method, rank int, alpha float64) *nn.DecodeAdapter {
	t.Helper()
	delta := peft.Delta(m)
	ad, err := Compile(method.Key(), rank, alpha, m.Cfg, delta)
	if err != nil {
		t.Fatal(err)
	}
	return ad
}

// TestCompiledAdapterMatchesNaiveGenerate serves extracted artifacts over
// a clean shared base and pins the streamed tokens to the fine-tuned
// model's naive Generate — the end-to-end train → extract → serve
// contract, per method.
func TestCompiledAdapterMatchesNaiveGenerate(t *testing.T) {
	base := nn.NewTransformer(testConfig(), tensor.NewRNG(1000))
	eng := New(base, Config{MaxBatch: 2})
	defer eng.Close()

	cases := []struct {
		method peft.Method
		rank   int
		alpha  float64
	}{
		{peft.LoRA, 2, 16},
		{peft.Adapter, 0, 0},
		{peft.PTuning, 0, 0},
	}
	prompt := []int{1, 4, 2}
	for _, tc := range cases {
		trained := trainedPEFT(t, tc.method, 1000) // same base seed as the engine's base
		want := trained.Generate(prompt, nn.GenerateConfig{MaxTokens: 8})
		ad := compiled(t, trained, tc.method, tc.rank, tc.alpha)

		stream, err := eng.Generate(context.Background(), Request{Prompt: prompt, MaxTokens: 8, Adapter: ad})
		if err != nil {
			t.Fatalf("%v: %v", tc.method, err)
		}
		got, reason, err := stream.Collect()
		if err != nil {
			t.Fatalf("%v: %v", tc.method, err)
		}
		if reason != "length" {
			t.Fatalf("%v: finish reason %q, want length", tc.method, reason)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: served %v, naive %v", tc.method, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: served %v, naive %v", tc.method, got, want)
			}
		}
	}
}

// TestNotServableMethods pins the rejection of backbone-mutating methods.
func TestNotServableMethods(t *testing.T) {
	for _, method := range []peft.Method{peft.FullFT, peft.BitFit} {
		m := trainedPEFT(t, method, 1010)
		if _, err := Compile(method.Key(), 0, 0, m.Cfg, peft.Delta(m)); err == nil {
			t.Fatalf("%v artifact compiled; want ErrNotServable", method)
		}
	}
}

// TestCompileRejectsForeignParams pins that an artifact with unexpected
// parameters fails loudly instead of decoding wrong.
func TestCompileRejectsForeignParams(t *testing.T) {
	m := trainedPEFT(t, peft.LoRA, 1020)
	delta := peft.Delta(m)
	delta = append(delta, nn.NewParameter("layer9.attn.q_proj.lora_A", 16, 2))
	if _, err := Compile("lora", 2, 16, m.Cfg, delta); err == nil {
		t.Fatal("out-of-range layer accepted")
	}
	delta2 := peft.Delta(trainedPEFT(t, peft.Adapter, 1021))
	if _, err := Compile("lora", 2, 16, m.Cfg, delta2); err == nil {
		t.Fatal("adapter params accepted as lora artifact")
	}
}

// TestConcurrentAdaptersOneBase drives more sequences than MaxBatch
// through one engine — different adapters, interleaved admission — and
// checks every stream against its naive reference. Run under -race by CI:
// this is the shared-frozen-base concurrency claim.
func TestConcurrentAdaptersOneBase(t *testing.T) {
	base := nn.NewTransformer(testConfig(), tensor.NewRNG(1000))
	eng := New(base, Config{MaxBatch: 2}) // forces batching churn with 6 requests
	defer eng.Close()

	type job struct {
		ad     *nn.DecodeAdapter
		prompt []int
		want   []int
		seed   uint64
		temp   float64
	}
	var jobs []job
	loraTrained := trainedPEFT(t, peft.LoRA, 1000)
	adptTrained := trainedPEFT(t, peft.Adapter, 1000)
	loraAd := compiled(t, loraTrained, peft.LoRA, 2, 16)
	adptAd := compiled(t, adptTrained, peft.Adapter, 0, 0)
	for i := 0; i < 6; i++ {
		trained, ad := loraTrained, loraAd
		if i%2 == 1 {
			trained, ad = adptTrained, adptAd
		}
		prompt := []int{1 + i, 3, 2}
		temp := 0.0
		if i >= 4 {
			temp = 0.7
		}
		seed := uint64(2000 + i)
		want := trained.Generate(prompt, nn.GenerateConfig{
			MaxTokens: 10, Temperature: temp, RNG: tensor.NewRNG(seed),
		})
		jobs = append(jobs, job{ad: ad, prompt: prompt, want: want, seed: seed, temp: temp})
	}

	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for ji, j := range jobs {
		wg.Add(1)
		go func(ji int, j job) {
			defer wg.Done()
			stream, err := eng.Generate(context.Background(), Request{
				Prompt: j.prompt, MaxTokens: 10, Temperature: j.temp, Seed: j.seed, Adapter: j.ad,
			})
			if err != nil {
				errs[ji] = err
				return
			}
			got, _, err := stream.Collect()
			if err != nil {
				errs[ji] = err
				return
			}
			if len(got) != len(j.want) {
				errs[ji] = fmt.Errorf("seq %d: served %v, want %v", ji, got, j.want)
				return
			}
			for i := range got {
				if got[i] != j.want[i] {
					errs[ji] = fmt.Errorf("seq %d: served %v, want %v", ji, got, j.want)
					return
				}
			}
		}(ji, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestGenerateValidation pins request validation.
func TestGenerateValidation(t *testing.T) {
	base := nn.NewTransformer(testConfig(), tensor.NewRNG(1030))
	eng := New(base, Config{})
	defer eng.Close()

	if _, err := eng.Generate(context.Background(), Request{}); err == nil {
		t.Fatal("empty prompt accepted")
	}
	if _, err := eng.Generate(context.Background(), Request{Prompt: []int{999}}); err == nil {
		t.Fatal("out-of-vocab prompt accepted")
	}
	long := make([]int, base.Cfg.MaxSeq)
	if _, err := eng.Generate(context.Background(), Request{Prompt: long}); err == nil {
		t.Fatal("over-long prompt accepted")
	}

	// A hostile MaxTokens must not size a huge stream buffer: the request
	// is clamped to MaxSeq (which bounds emission anyway) and completes.
	stream, err := eng.Generate(context.Background(), Request{Prompt: []int{1, 2}, MaxTokens: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	tokens, reason, err := stream.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if reason != "max_seq" && reason != "length" {
		t.Fatalf("clamped generation finished with reason %q", reason)
	}
	if len(tokens) >= base.Cfg.MaxSeq {
		t.Fatalf("emitted %d tokens past MaxSeq %d", len(tokens), base.Cfg.MaxSeq)
	}
}

// TestStopTokenAndCancellation pins the stop-token finish reason and
// context cancellation mid-stream.
func TestStopTokenAndCancellation(t *testing.T) {
	base := nn.NewTransformer(testConfig(), tensor.NewRNG(1040))
	eng := New(base, Config{})
	defer eng.Close()

	prompt := []int{2, 3}
	ref := base.Generate(prompt, nn.GenerateConfig{MaxTokens: 12})
	stopAt := -1
	for i, tok := range ref {
		if tok > 0 {
			stopAt = i
			break
		}
	}
	if stopAt >= 0 {
		stream, err := eng.Generate(context.Background(), Request{Prompt: prompt, MaxTokens: 12, StopToken: ref[stopAt]})
		if err != nil {
			t.Fatal(err)
		}
		got, reason, err := stream.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if reason != "stop" || len(got) != stopAt+1 {
			t.Fatalf("stop token: got %v reason %q, want %d tokens reason stop", got, reason, stopAt+1)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before admission: the stream must terminate promptly
	stream, err := eng.Generate(ctx, Request{Prompt: prompt, MaxTokens: 1 << 10})
	if err != nil {
		return // rejected at submit — also acceptable
	}
	_, reason, err := stream.Collect()
	if err == nil && reason != "cancelled" {
		t.Fatalf("cancelled stream finished with reason %q", reason)
	}
}

// TestEngineCloseFailsInFlight pins that Close terminates queued work with
// an error instead of leaking streams.
func TestEngineCloseFailsInFlight(t *testing.T) {
	base := nn.NewTransformer(testConfig(), tensor.NewRNG(1050))
	eng := New(base, Config{MaxBatch: 1})
	stream, err := eng.Generate(context.Background(), Request{Prompt: []int{1, 2}, MaxTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if _, err := eng.Generate(context.Background(), Request{Prompt: []int{1}}); err == nil {
		t.Fatal("closed engine accepted a request")
	}
	// The stream either completed normally before close or was failed —
	// it must terminate either way.
	if _, _, err := stream.Collect(); err != nil && !isClosed(err) {
		t.Fatalf("unexpected stream error: %v", err)
	}
}

func isClosed(err error) bool { return err == ErrClosed }
