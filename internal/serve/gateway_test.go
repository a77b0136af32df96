package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"longexposure/internal/core"
	"longexposure/internal/data"
	"longexposure/internal/jobs"
	"longexposure/internal/nn"
	"longexposure/internal/registry"
	"longexposure/internal/serve"
)

// gwEnv is env plus a registry-backed gateway.
type gwEnv struct {
	*env
	reg *registry.Store
}

func newGatewayEnv(t *testing.T, workers int) *gwEnv {
	t.Helper()
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := jobs.NewStore(jobs.Config{Workers: workers, Registry: reg})
	srv := serve.New(store, serve.WithRegistry(reg, 2))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	})
	return &gwEnv{env: &env{t: t, store: store, ts: ts}, reg: reg}
}

// finetuneSpec is the dense-baseline job both gateway tests train: small,
// deterministic, and rebuildable in-process for the naive reference.
func finetuneSpec(lr float64) map[string]any {
	return map[string]any{
		"kind": "finetune",
		"finetune": map[string]any{
			"method": "lora", "sparse": false,
			"steps": 2, "batch": 1, "seq": 12, "epochs": 1,
			"lr": lr,
		},
	}
}

// naiveReference reruns the job pipeline in-process (everything is seeded)
// and returns the fine-tuned model — the ground truth the served stream
// must reproduce token for token.
func naiveReference(t *testing.T, lr float64) *nn.Transformer {
	t.Helper()
	var spec jobs.Spec
	raw, _ := json.Marshal(finetuneSpec(lr))
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	f := spec.Normalized().Finetune
	cfg, err := f.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.NewE2ECorpus(cfg.Spec.Config.Vocab, max(2, f.Seq/6), f.Seed)
	batches := data.Batches(corpus.Generate(f.Steps*f.Batch, f.Seed+1), f.Batch, f.Seq)
	eng := core.NewBaseline(cfg)
	eng.Run(batches, f.Epochs)
	return eng.Model
}

// generateSSE posts to /v1/generate and parses the SSE stream into tokens
// plus the terminal frame's reason.
func (e *gwEnv) generateSSE(body map[string]any) (tokens []int, reason string) {
	e.t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		e.t.Fatal(err)
	}
	resp, err := http.Post(e.ts.URL+"/v1/generate", "application/json", &buf)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		e.t.Fatalf("POST /v1/generate: %d: %s", resp.StatusCode, out.String())
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			payload := strings.TrimPrefix(line, "data: ")
			switch event {
			case "token":
				var tok struct {
					Token int `json:"token"`
				}
				if err := json.Unmarshal([]byte(payload), &tok); err != nil {
					e.t.Fatalf("bad token frame %q: %v", payload, err)
				}
				tokens = append(tokens, tok.Token)
			case "done":
				var done struct {
					Tokens []int  `json:"tokens"`
					Reason string `json:"reason"`
				}
				if err := json.Unmarshal([]byte(payload), &done); err != nil {
					e.t.Fatalf("bad done frame %q: %v", payload, err)
				}
				return tokens, done.Reason
			case "error":
				e.t.Fatalf("error frame: %s", payload)
			}
		}
	}
	e.t.Fatalf("stream ended without done frame (got %d tokens)", len(tokens))
	return nil, ""
}

// TestGatewayEndToEnd drives the whole loop over HTTP: two fine-tune jobs
// complete and auto-publish adapters, the adapters appear in /v1/adapters,
// and /v1/generate streams tokens from both concurrently on one shared
// base — each stream bit-identical to the fine-tuned model's naive
// Generate.
func TestGatewayEndToEnd(t *testing.T) {
	e := newGatewayEnv(t, 2)

	lrs := []float64{1e-3, 5e-3} // same base (seed/model), different adapters
	adapterIDs := make([]string, len(lrs))
	for i, lr := range lrs {
		j := e.submit(finetuneSpec(lr), http.StatusAccepted)
		done := e.waitStatus(j.ID, jobs.StatusDone)
		if done.Result == nil || done.Result.Finetune == nil || done.Result.Finetune.AdapterID == "" {
			t.Fatalf("job %s finished without an adapter id: %+v", j.ID, done.Result)
		}
		adapterIDs[i] = done.Result.Finetune.AdapterID
	}
	if adapterIDs[0] == adapterIDs[1] {
		t.Fatalf("distinct jobs published the same adapter %s", adapterIDs[0])
	}

	// Registry listing over HTTP.
	resp, body := e.do("GET", "/v1/adapters", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/adapters: %d: %s", resp.StatusCode, body)
	}
	var manifests []registry.Manifest
	if err := json.Unmarshal(body, &manifests); err != nil {
		t.Fatal(err)
	}
	if len(manifests) != 2 {
		t.Fatalf("listed %d adapters, want 2: %s", len(manifests), body)
	}
	if manifests[0].BaseHash != manifests[1].BaseHash {
		t.Fatal("same-spec jobs published adapters with different base hashes")
	}

	// Concurrent generation with both adapters, pinned to the in-process
	// reference models (the jobs pipeline is fully deterministic).
	prompt := []int{11, 12, 13}
	wants := make([][]int, len(lrs))
	for i, lr := range lrs {
		ref := naiveReference(t, lr)
		wants[i] = ref.Generate(prompt, nn.GenerateConfig{MaxTokens: 8})
	}
	var wg sync.WaitGroup
	got := make([][]int, len(lrs))
	reasons := make([]string, len(lrs))
	for i := range lrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], reasons[i] = e.generateSSE(map[string]any{
				"adapter": adapterIDs[i], "prompt": prompt,
				"decode": map[string]any{"sampling": map[string]any{"max_tokens": 8}},
			})
		}(i)
	}
	wg.Wait()
	for i := range lrs {
		if reasons[i] != "length" {
			t.Fatalf("adapter %d finish reason %q, want length", i, reasons[i])
		}
		if len(got[i]) != len(wants[i]) {
			t.Fatalf("adapter %d served %v, want %v", i, got[i], wants[i])
		}
		for k := range wants[i] {
			if got[i][k] != wants[i][k] {
				t.Fatalf("adapter %d served %v, want %v", i, got[i], wants[i])
			}
		}
	}
	if len(got[0]) > 0 && len(got[1]) > 0 {
		same := len(got[0]) == len(got[1])
		if same {
			for k := range got[0] {
				if got[0][k] != got[1][k] {
					same = false
					break
				}
			}
		}
		if same {
			t.Log("note: both adapters emitted identical tokens (tiny training delta)")
		}
	}

	// Resubmitting the first job is a cache hit carrying the same adapter.
	cached := e.submit(finetuneSpec(lrs[0]), http.StatusOK)
	if !cached.CacheHit || cached.Result.Finetune.AdapterID != adapterIDs[0] {
		t.Fatalf("cache hit lost the adapter id: %+v", cached.Result)
	}

	// Adapter CRUD: get, delete, then 404s.
	resp, _ = e.do("GET", "/v1/adapters/"+adapterIDs[0], nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET adapter: %d", resp.StatusCode)
	}
	resp, _ = e.do("DELETE", "/v1/adapters/"+adapterIDs[0], nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE adapter: %d", resp.StatusCode)
	}
	resp, _ = e.do("GET", "/v1/adapters/"+adapterIDs[0], nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted adapter still served: %d", resp.StatusCode)
	}
	var errBody bytes.Buffer
	gen, err := http.Post(e.ts.URL+"/v1/generate", "application/json",
		strings.NewReader(`{"adapter":"`+adapterIDs[0]+`","prompt":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	errBody.ReadFrom(gen.Body)
	gen.Body.Close()
	if gen.StatusCode != http.StatusNotFound {
		t.Fatalf("generate with deleted adapter: %d: %s", gen.StatusCode, errBody.String())
	}
}

// TestGatewayBaseOnlyGenerate serves the plain frozen base from an
// explicit base description — no adapter involved.
func TestGatewayBaseOnlyGenerate(t *testing.T) {
	e := newGatewayEnv(t, 1)
	desc := registry.BaseDesc{Model: "sim-small", Activation: "relu", Seed: 1, Blk: 8, Prime: true}
	base, err := jobs.BuildBase(desc)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{5, 6, 7}
	want := base.Generate(prompt, nn.GenerateConfig{MaxTokens: 6, Temperature: 0.5, RNG: nil})
	got, reason := e.generateSSE(map[string]any{
		"base":   map[string]any{"model": "sim-small", "activation": "relu", "seed": 1, "blk": 8, "prime": true},
		"prompt": prompt,
		"decode": map[string]any{"sampling": map[string]any{"max_tokens": 6, "temperature": 0.5, "seed": 1}},
	})
	if reason != "length" {
		t.Fatalf("finish reason %q", reason)
	}
	if len(got) != len(want) {
		t.Fatalf("served %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("served %v, want %v", got, want)
		}
	}
}

// TestGatewayRejectsBadRequests pins the 4xx surface: every rejection
// arrives as the structured error envelope with a machine-readable code.
func TestGatewayRejectsBadRequests(t *testing.T) {
	e := newGatewayEnv(t, 1)
	// Bodies past the 1 MiB cap: a prompt far beyond any MaxSeq, and a job
	// spec with a huge model name. Both are refused before they are decoded
	// in full.
	hugePrompt := `{"base":{"model":"sim-small","seed":1},"prompt":[` + strings.Repeat("1,", 600_000) + `1]}`
	hugeSpec := `{"kind":"finetune","finetune":{"model":"` + strings.Repeat("x", 1<<20) + `"}}`
	for _, c := range []struct {
		body string
		code string
		path string // "" is /v1/generate
	}{
		{`{"prompt":[1,2]}`, "invalid_request", ""},                               // neither adapter nor base
		{`{"adapter":"ad-none","prompt":[1,2]}`, "not_found", ""},                 // unknown adapter
		{`{"adapter":"x","base":{"model":"sim-small"}}`, "invalid_request", ""},   // both selectors
		{`{"base":{"model":"nope","seed":1},"prompt":[]}`, "invalid_request", ""}, // unknown model / empty prompt
		{hugePrompt, "body_too_large", ""},
		{hugeSpec, "body_too_large", "/v1/jobs"},
	} {
		path := c.path
		if path == "" {
			path = "/v1/generate"
		}
		resp, err := http.Post(e.ts.URL+path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if len(c.body) > 64 {
			c.body = c.body[:64] + "…" // keep failure messages readable
		}
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("body %s: decoding error envelope: %v", c.body, err)
		}
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("body %s: status %d, want 4xx", c.body, resp.StatusCode)
		}
		if envelope.Error.Code != c.code || envelope.Error.Message == "" {
			t.Fatalf("body %s: envelope %+v, want code %q with a message", c.body, envelope.Error, c.code)
		}
	}
}
