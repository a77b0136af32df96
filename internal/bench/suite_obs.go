// The obs suite defends the observability plane's core promise: metering
// the hot paths costs nanoseconds and zero allocations. It measures the
// raw instrument primitives, then re-runs the two zero-alloc flagship
// paths — the steady-state training step and the KV-cached decode step —
// with their production instruments attached, exactly as jobs workers and
// the generation engine run them. CI gates the allocs_per_op of the
// instrumented paths at the same (near) zero the uninstrumented suites
// pinned in earlier PRs: observability must never reopen the allocation
// tax PR 3 removed.
package bench

import (
	"longexposure/internal/nn"
	"longexposure/internal/obs"
	"longexposure/internal/train"
)

func init() {
	Register("obs", obsSuite)
}

func obsSuite(o Options) []Benchmark {
	var benchmarks []Benchmark

	// ---- raw instrument primitives ----
	var (
		counter   *obs.Counter
		gauge     *obs.Gauge
		histogram *obs.Histogram
		obsIdx    int
	)
	primSetup := func() {
		r := obs.NewRegistry()
		counter = r.Counter("bench_counter_total", "bench")
		gauge = r.Gauge("bench_gauge", "bench")
		histogram = r.Histogram("bench_seconds", "bench", obs.DurationBuckets)
	}
	benchmarks = append(benchmarks,
		Benchmark{
			Name:  "obs/counter_add",
			Setup: primSetup,
			Fn:    func() { counter.Add(1) },
		},
		Benchmark{
			Name:  "obs/histogram_observe",
			Setup: primSetup,
			Fn: func() {
				histogram.Observe(float64(obsIdx&1023) * 1e-6)
				gauge.Set(float64(obsIdx))
				obsIdx++
			},
		},
	)

	// ---- instrumented steady-state training step ----
	// Identical to train_step/ws (one worker, warm arena) plus a live
	// TrainMetrics bundle: the gate proving instrumentation keeps the
	// step at zero steady-state allocations.
	benchmarks = append(benchmarks, trainStepBench("obs/train_step_instrumented", func(eng *train.Engine) {
		eng.Metrics = obs.NewTrainMetrics(obs.NewRegistry())
	}))

	// ---- instrumented KV-cached decode step ----
	// One token through the cached decode path plus the per-step metric
	// updates the infer scheduler performs (occupancy, tokens, KV
	// residency) — the serving hot path, instrumented, at 0 allocs/op.
	var im *obs.InferMetrics
	benchmarks = append(benchmarks, decodeStepBench("obs/decode_step_instrumented",
		func() { im = obs.NewInferMetrics(obs.NewRegistry()) },
		func(step func(), cache *nn.KVCache) {
			step()
			im.SchedulerSteps.Inc()
			im.BatchOccupancy.Observe(1)
			im.Tokens.Add(1)
			im.KVRows.Set(float64(cache.Len))
			im.Active.Set(1)
		}))

	return benchmarks
}
