// The trace suite defends the tracing plane's promise: a sampled span's
// start/finish round-trip costs tens of nanoseconds and zero allocations
// (pooled spans, seqlock ring), and with tracing wired in but sampling
// off the flagship zero-alloc paths — the instrumented training step and
// the KV-cached decode step — still allocate nothing: an unsampled span
// is a nil pointer and every operation on it is a single-branch no-op.
// CI gates both the ns/op of the sampled round-trip and the allocs/op of
// the traced-but-unsampled hot paths.
package bench

import (
	"longexposure/internal/nn"
	"longexposure/internal/obs"
	"longexposure/internal/trace"
	"longexposure/internal/train"
)

func init() {
	Register("trace", traceSuite)
}

func traceSuite(o Options) []Benchmark {
	var benchmarks []Benchmark

	// ---- raw span primitives ----
	var sampled, unsampled *trace.Tracer
	benchmarks = append(benchmarks,
		Benchmark{
			Name: "trace/span_start_finish",
			Setup: func() {
				sampled = trace.New(trace.Config{SampleRatio: 1, Capacity: 1024, Seed: 1})
				for i := 0; i < 64; i++ { // warm the span pool
					sampled.StartRoot("warm", trace.SpanContext{}).Finish()
				}
			},
			Fn: func() {
				sp := sampled.StartRoot("bench.op", trace.SpanContext{})
				sp.SetInt("k", 1)
				sp.Finish()
			},
		},
		Benchmark{
			Name: "trace/span_unsampled",
			Setup: func() {
				unsampled = trace.New(trace.Config{SampleRatio: 0, Capacity: 1024, Seed: 1})
			},
			Fn: func() {
				// The full per-request call shape against a nil span.
				sp := unsampled.StartRoot("bench.op", trace.SpanContext{})
				sp.SetInt("k", 1)
				child := sp.StartChild("bench.child")
				child.SetInt("k", 2)
				child.Finish()
				sp.Finish()
			},
		},
	)

	// ---- traced training step, sampling off ----
	// The production jobs-worker configuration: metrics attached AND the
	// tracer wired (eng.Span comes from a ratio-0 tracer, i.e. nil). The
	// gate proves threading tracing through train.Engine.Step did not
	// reopen the zero-allocation steady state.
	benchmarks = append(benchmarks, trainStepBench("trace/train_step_traced_off", func(eng *train.Engine) {
		eng.Metrics = obs.NewTrainMetrics(obs.NewRegistry())
		tr := trace.New(trace.Config{SampleRatio: 0, Seed: 1})
		eng.Span = tr.StartRoot("jobs.run", trace.SpanContext{}) // nil: unsampled
	}))

	// ---- traced KV-cached decode step, sampling off ----
	// One token through the cached decode path plus the per-step span
	// operations the infer scheduler performs against an unsampled (nil)
	// sequence span — the serving hot path with tracing wired in.
	var seqSpan *trace.Span
	benchmarks = append(benchmarks, decodeStepBench("trace/decode_step_traced_off",
		func() {
			tr := trace.New(trace.Config{SampleRatio: 0, Seed: 1})
			seqSpan = tr.StartRoot("infer.sequence", trace.SpanContext{}) // nil: unsampled
		},
		func(step func(), _ *nn.KVCache) {
			sp := seqSpan.StartChild("infer.decode_step")
			sp.SetInt("step", 1)
			step()
			sp.SetInt("batch", 1)
			sp.Finish()
		}))

	return benchmarks
}
