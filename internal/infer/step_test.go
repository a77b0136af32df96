package infer

import (
	"context"
	"fmt"
	"testing"

	"longexposure/internal/nn"
	"longexposure/internal/obs"
	"longexposure/internal/tensor"
)

// hookProvider hands every sparsity request the same test planner.
type hookProvider struct{ p nn.DecodePlanner }

func (h hookProvider) NewSequencePlanner(nn.SparsityOptions) (nn.DecodePlanner, error) {
	return h.p, nil
}

// poisonPlanner plans every step onto KV block 7 (positions 28–31), which
// no short sequence can see: the shared step panics inside DecodeBatch,
// after the first layer has written every sequence's cache.
type poisonPlanner struct{}

func (poisonPlanner) BeginSequence([]int, *nn.DecodeAdapter) {}
func (poisonPlanner) PlanStep(int, int, *tensor.Arena) *nn.DecodePlan {
	return &nn.DecodePlan{Blk: 4, Attn: [][]int{{7}, {7}}}
}

// cancelPlanner cancels its own sequence's context on its third planned
// step and otherwise plans dense: the cancel lands mid-generation, at a
// step the test knows.
type cancelPlanner struct {
	cancel context.CancelFunc
	steps  int
}

func (c *cancelPlanner) BeginSequence([]int, *nn.DecodeAdapter) {}
func (c *cancelPlanner) PlanStep(int, int, *tensor.Arena) *nn.DecodePlan {
	if c.steps++; c.steps == 3 {
		c.cancel()
	}
	return nil
}

// reference decodes a request alone through GenerateCachedCfg.
func reference(base *nn.Transformer, prompt []int, maxTokens int, temp float64, seed uint64) []int {
	return base.GenerateCachedCfg(prompt, nn.GenerateConfig{
		MaxTokens: maxTokens, Temperature: temp, RNG: tensor.NewRNG(seed),
	}, nn.DecodeSession{WS: tensor.NewArena()})
}

func equalTokens(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("served %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("served %v, want %v", got, want)
		}
	}
	return nil
}

// TestSharedStepPanicFailsEveryStream pins the failure semantics of a
// shared step: a panic inside DecodeBatch fails every sequence in that
// step with reason "error" (their caches are in an unknown state), every
// admitted sequence retires, and the engine keeps serving bit-identical
// tokens afterwards.
func TestSharedStepPanicFailsEveryStream(t *testing.T) {
	base := nn.NewTransformer(testConfig(), tensor.NewRNG(1200))
	reg := obs.NewRegistry()
	eng := New(base, Config{MaxBatch: 4, Planner: hookProvider{poisonPlanner{}}, Metrics: obs.NewInferMetrics(reg)})

	// The poisoned request goes in last, so the three dense ones are
	// admitted no later than it and, at 16 tokens each, are still running
	// when its first planned step panics.
	var streams []*Stream
	for i := 0; i < 4; i++ {
		req := Request{Prompt: []int{1 + i, 3, 2}, MaxTokens: 16}
		if i == 3 {
			req.Sparsity = nn.SparsityOptions{Mode: nn.SparsityAuto}
		}
		s, err := eng.Generate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
	}
	for i, s := range streams {
		if _, reason, err := s.Collect(); reason != "error" || err == nil {
			t.Fatalf("stream %d ended %q (err %v), want \"error\"", i, reason, err)
		}
	}

	prompt := []int{2, 5, 1}
	next, err := eng.Generate(context.Background(), Request{Prompt: prompt, MaxTokens: 8, Temperature: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := next.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if err := equalTokens(got, reference(base, prompt, 8, 0.7, 9)); err != nil {
		t.Fatalf("request after the failed step: %v", err)
	}

	eng.Close() // joins the scheduler: every retirement is counted
	admitted, _ := reg.Value("lexp_infer_admitted_total")
	retired, _, _ := reg.SumValues("lexp_infer_retired_total")
	if admitted != 5 || retired != admitted {
		t.Fatalf("admitted_total %v, retired_total %v, want 5 and 5", admitted, retired)
	}
	if errs, _ := reg.Value("lexp_infer_retired_total", "error"); errs != 4 {
		t.Fatalf("retired_total{reason=error} = %v, want 4", errs)
	}
}

// TestCancelOneOfFourStreams cancels one sequence mid-generation while
// three others share its steps: the cancelled stream ends "cancelled"
// after a prefix of its reference, and the other three stay bit-identical
// to theirs.
func TestCancelOneOfFourStreams(t *testing.T) {
	base := nn.NewTransformer(testConfig(), tensor.NewRNG(1210))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := New(base, Config{MaxBatch: 4, Planner: hookProvider{&cancelPlanner{cancel: cancel}}})
	defer eng.Close()

	type job struct {
		prompt []int
		temp   float64
		seed   uint64
		stream *Stream
	}
	jobs := make([]job, 4)
	for i := range jobs {
		j := job{prompt: []int{1 + i, 4, 2 + i}, temp: 0.6 * float64(i%2), seed: uint64(40 + i)}
		req := Request{Prompt: j.prompt, MaxTokens: 12, Temperature: j.temp, Seed: j.seed}
		rctx := context.Background()
		if i == 1 {
			req.Sparsity = nn.SparsityOptions{Mode: nn.SparsityAuto}
			rctx = ctx
		}
		var err error
		if j.stream, err = eng.Generate(rctx, req); err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		got, reason, err := j.stream.Collect()
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		want := reference(base, j.prompt, 12, j.temp, j.seed)
		if i == 1 {
			// Prefill plus three planned steps emit, then the step after the
			// cancel finishes the sequence.
			if reason != "cancelled" || len(got) != 4 {
				t.Fatalf("cancelled stream ended %q after %d tokens, want \"cancelled\" after 4", reason, len(got))
			}
			want = want[:4]
		}
		if err := equalTokens(got, want); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
}
