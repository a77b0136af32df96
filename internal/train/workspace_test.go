package train

import (
	"sync"
	"testing"

	"longexposure/internal/data"
	"longexposure/internal/model"
	"longexposure/internal/nn"
	"longexposure/internal/obs"
	"longexposure/internal/parallel"
	"longexposure/internal/peft"
	"longexposure/internal/tensor"
	"longexposure/internal/trace"
)

// newWorkspaceTestEngine builds a deterministic LoRA engine on the small
// sim config.
func newWorkspaceTestEngine(seed uint64) *Engine {
	r := tensor.NewRNG(seed)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	peft.Apply(m, peft.LoRA, peft.Options{}, r.Split())
	return &Engine{Model: m, Opt: peft.NewAdamW(1e-3, 0)}
}

// testStep runs one step on the engine's warm, reused arena, or — noWS —
// on a fresh arena, whose every buffer is newly made and zeroed: the
// allocating path, kept as the bit-identity oracle that catches any read
// of a stale recycled buffer.
func testStep(e *Engine, b data.Batch, noWS bool) float64 {
	ws := e.Workspace()
	if noWS {
		ws = tensor.NewArena()
	}
	loss, _ := e.step(b, ws)
	return loss
}

// TestWorkspaceLossesBitIdenticalToAllocatingPath is the refactor's core
// contract: the engine's reused arena and a fresh arena per step (the
// allocating path) must produce the exact same loss sequence, bit for bit.
func TestWorkspaceLossesBitIdenticalToAllocatingPath(t *testing.T) {
	run := func(noWS bool) []float64 {
		e := newWorkspaceTestEngine(81)
		batches := copyTaskBatches(64, 2, 8, 6, 9)
		var losses []float64
		for ep := 0; ep < 2; ep++ {
			for _, b := range batches {
				losses = append(losses, testStep(e, b, noWS))
			}
		}
		return losses
	}
	ws, noWS := run(false), run(true)
	if len(ws) != len(noWS) || len(ws) == 0 {
		t.Fatalf("loss counts %d vs %d", len(ws), len(noWS))
	}
	for i := range ws {
		if ws[i] != noWS[i] {
			t.Fatalf("step %d: workspace loss %v != allocating loss %v", i, ws[i], noWS[i])
		}
	}
}

// TestWorkspaceGradientsBitIdentical drives one full step on two engines
// with identical weights — one reused arena, one fresh arena per step —
// and asserts every parameter (post-optimizer) matches exactly.
func TestWorkspaceGradientsBitIdentical(t *testing.T) {
	a := newWorkspaceTestEngine(82)
	b := newWorkspaceTestEngine(82)
	batches := copyTaskBatches(64, 2, 8, 2, 5)
	for _, batch := range batches {
		la := testStep(a, batch, false)
		lb := testStep(b, batch, true)
		if la != lb {
			t.Fatalf("losses diverge: %v vs %v", la, lb)
		}
	}
	pa, pb := a.Model.Params(), b.Model.Params()
	for i := range pa {
		if d := tensor.MaxAbsDiff(pa[i].W, pb[i].W); d != 0 {
			t.Fatalf("%s: weights diverge by %v after identical steps", pa[i].Name, d)
		}
	}
}

// TestWorkspaceStepAllocsReduced pins the acceptance criterion: after the
// one-step warmup, a workspace-backed training step must allocate at most
// 10% of what the allocating path does (≥ 90% reduction). Measured with a
// single worker so the numbers reflect buffer management, not the worker
// pool's per-spawn goroutine overhead (which both paths pay identically).
func TestWorkspaceStepAllocsReduced(t *testing.T) {
	old := parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	batches := copyTaskBatches(64, 2, 8, 2, 13)
	measure := func(noWS bool) float64 {
		e := newWorkspaceTestEngine(83)
		testStep(e, batches[0], noWS) // warmup: arena fills, optimizer state appears
		return testing.AllocsPerRun(5, func() { testStep(e, batches[0], noWS) })
	}
	with := measure(false)
	without := measure(true)
	if without == 0 {
		t.Fatalf("allocating path reported zero allocations (%v with workspace)", with)
	}
	t.Logf("allocs/step: workspace %.0f, allocating %.0f (%.1f%% reduction)",
		with, without, 100*(1-with/without))
	if with > 0.10*without {
		t.Fatalf("workspace step allocates %.0f/op vs %.0f/op allocating — less than 90%% reduction", with, without)
	}
}

// TestSteadyStepZeroAllocs pins the steady-state training step at exactly
// zero allocations once one warm-up step has filled the arena and the
// optimizer state: bare, with a live TrainMetrics bundle (the jobs
// worker's configuration), and with metrics plus the span of a ratio-0
// tracer (nil: tracing wired in, sampling off). One worker, so the
// number is the step's own and not the pool's per-spawn goroutines.
func TestSteadyStepZeroAllocs(t *testing.T) {
	old := parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	batch := copyTaskBatches(64, 2, 16, 2, 99)[0]
	for _, tc := range []struct {
		name string
		arm  func(*Engine)
	}{
		{"bare", func(*Engine) {}},
		{"metrics", func(e *Engine) { e.Metrics = obs.NewTrainMetrics(obs.NewRegistry()) }},
		{"metrics+unsampled_span", func(e *Engine) {
			e.Metrics = obs.NewTrainMetrics(obs.NewRegistry())
			e.Span = trace.New(trace.Config{SampleRatio: 0, Seed: 1}).StartRoot("jobs.run", trace.SpanContext{})
		}},
	} {
		e := newWorkspaceTestEngine(85)
		tc.arm(e)
		e.Step(batch) // warm-up: arena fill, optimizer state
		if n := testing.AllocsPerRun(5, func() { e.Step(batch) }); n != 0 {
			t.Errorf("%s: steady training step allocates %v/op, want 0", tc.name, n)
		}
	}
}

// TestConcurrentReplicasRaceFree runs two replicas of the same model config
// through concurrent forward/backward steps, each with its own workspace —
// the regression test for the probsDense/probsSparse layer-struct sharing
// hazard. Run under -race (the CI race job covers this package).
func TestConcurrentReplicasRaceFree(t *testing.T) {
	r := tensor.NewRNG(84)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	peft.Apply(m, peft.LoRA, peft.Options{}, r.Split())

	engines := []*Engine{
		{Model: m, Opt: peft.NewAdamW(1e-3, 0)},
		{Model: CloneModel(m, r.Split()), Opt: peft.NewAdamW(1e-3, 0)},
	}
	batches := copyTaskBatches(64, 2, 8, 4, 7)

	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			for _, b := range batches {
				e.Step(b)
			}
		}(e)
	}
	wg.Wait()

	// Identical weights, batches, and optimizer ⇒ the replicas must still
	// agree exactly; any cross-replica state sharing would show up here
	// (and as a -race report above).
	pa, pb := engines[0].Model.Params(), engines[1].Model.Params()
	for i := range pa {
		if d := tensor.MaxAbsDiff(pa[i].W, pb[i].W); d != 0 {
			t.Fatalf("%s: concurrent replicas diverged by %v", pa[i].Name, d)
		}
	}
}

// TestDataParallelWorkspacesStayIdentical pins the per-replica arenas in
// DataParallel: concurrent sharded steps with private workspaces keep
// replicas bit-identical (MaxReplicaDrift == 0), as synchronous DDP must.
func TestDataParallelWorkspacesStayIdentical(t *testing.T) {
	r := tensor.NewRNG(85)
	m := nn.NewTransformer(model.SimSmall(nn.ActReLU).Config, r)
	peft.Apply(m, peft.LoRA, peft.Options{}, r.Split())
	dp := NewDataParallel(m, 2, func() peft.Optimizer { return peft.NewAdamW(1e-3, 0) }, r)

	batches := copyTaskBatches(64, 4, 8, 3, 11)
	for _, b := range batches {
		dp.Step(b)
	}
	if drift := dp.MaxReplicaDrift(); drift != 0 {
		t.Fatalf("replica drift %v after data-parallel steps", drift)
	}
}
