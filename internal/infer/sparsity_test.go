package infer

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"longexposure/internal/nn"
	"longexposure/internal/obs"
	"longexposure/internal/predictor"
	"longexposure/internal/tensor"
)

// TestHeterogeneousPlansInOneBatch runs a continuous batch whose sequences
// carry different sparsity options — off, forced density 1.0, forced half
// density, auto — concurrently on one engine, and pins every stream to a
// single-threaded reference decoded with its own sequence planner. Run
// under -race by CI: per-sequence planners must never share mutable state.
func TestHeterogeneousPlansInOneBatch(t *testing.T) {
	base := nn.NewTransformer(testConfig(), tensor.NewRNG(1100))
	obsReg := obs.NewRegistry()
	sp := predictor.NewServingPlanner(base, nil, predictor.ServingConfig{Metrics: obs.NewServingSparsityMetrics(obsReg)})
	eng := New(base, Config{MaxBatch: 2, Planner: sp, Metrics: obs.NewInferMetrics(obsReg)})
	defer eng.Close()

	modes := []nn.SparsityOptions{
		{},
		{Mode: nn.SparsityForced, MLPDensity: 1, AttnDensity: 1},
		{Mode: nn.SparsityForced, MLPDensity: 0.5},
		{Mode: nn.SparsityAuto},
		{Mode: nn.SparsityForced, MLPDensity: 0.5},
		{Mode: nn.SparsityAuto, MLPDensity: 0.75},
	}
	type job struct {
		opts   nn.SparsityOptions
		prompt []int
		temp   float64
		seed   uint64
		want   []int
	}
	jobs := make([]job, len(modes))
	for i, opts := range modes {
		prompt := []int{1 + i, 3, 2}
		temp := 0.0
		if i >= 4 {
			temp = 0.7
		}
		seed := uint64(3000 + i)
		// Single-threaded reference with an independent sequence planner —
		// planning reads only the prompt and emitted tokens, so a fresh
		// planner over the same base reproduces the engine's plans exactly.
		planner, err := sp.NewSequencePlanner(opts)
		if err != nil {
			t.Fatal(err)
		}
		want := base.GenerateCachedCfg(prompt, nn.GenerateConfig{
			MaxTokens: 10, Temperature: temp, RNG: tensor.NewRNG(seed),
		}, nn.DecodeSession{WS: tensor.NewArena(), Planner: planner})
		jobs[i] = job{opts: opts, prompt: prompt, temp: temp, seed: seed, want: want}
	}

	// The dense, forced-1.0 — and on this 2-layer model, auto-default —
	// references must agree with the plain dense decode (quality gate).
	dense := base.GenerateCachedCfg(jobs[0].prompt, nn.GenerateConfig{MaxTokens: 10, RNG: tensor.NewRNG(3000)}, nn.DecodeSession{})
	for i := range dense {
		if jobs[0].want[i] != dense[i] {
			t.Fatalf("off-mode reference diverged from dense: %v vs %v", jobs[0].want, dense)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for ji, j := range jobs {
		wg.Add(1)
		go func(ji int, j job) {
			defer wg.Done()
			stream, err := eng.Generate(context.Background(), Request{
				Prompt: j.prompt, MaxTokens: 10, Temperature: j.temp, Seed: j.seed, Sparsity: j.opts,
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
				errs[ji] = fmt.Errorf("seq %d (%+v): served %v, want %v", ji, j.opts, got, j.want)
				return
			}
			for i := range got {
				if got[i] != j.want[i] {
					errs[ji] = fmt.Errorf("seq %d (%+v): served %v, want %v", ji, j.opts, got, j.want)
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

	if v, _ := obsReg.Value("lexp_infer_sparse_steps_total"); v == 0 {
		t.Fatal("no sparse steps counted across the batch")
	}
}

// TestSparsityRequestValidation pins the engine-side option surface: a
// sparsity request without a planner is rejected, as are invalid options
// even when no planner is attached.
func TestSparsityRequestValidation(t *testing.T) {
	base := nn.NewTransformer(testConfig(), tensor.NewRNG(1110))
	eng := New(base, Config{})
	defer eng.Close()

	if _, err := eng.Generate(context.Background(), Request{
		Prompt: []int{1, 2}, Sparsity: nn.SparsityOptions{Mode: nn.SparsityAuto},
	}); err == nil {
		t.Fatal("sparsity request accepted by a planner-less engine")
	}
	if _, err := eng.Generate(context.Background(), Request{
		Prompt: []int{1, 2}, Sparsity: nn.SparsityOptions{Mode: "bogus"},
	}); err == nil {
		t.Fatal("invalid sparsity mode accepted")
	}
	if _, err := eng.Generate(context.Background(), Request{
		Prompt: []int{1, 2}, Sparsity: nn.SparsityOptions{MLPDensity: 0.5},
	}); err == nil {
		t.Fatal("off-mode densities accepted")
	}
}
