package obs

import (
	"reflect"
	"testing"
)

// TestNilRegistryBundlesAreNoOps pins the "metrics off" idiom: every
// bundle constructor accepts a nil registry, and every update on the
// handles it returns — plain, labeled, and the bundles' own helper
// methods — neither panics nor allocates. Handles are collected by
// reflection so a field added to any bundle is covered automatically.
func TestNilRegistryBundlesAreNoOps(t *testing.T) {
	var r *Registry
	slo, lim, infer, acct := NewSLOMetrics(r), NewLimitMetrics(r), NewInferMetrics(r), NewAccountMetrics(r)
	sparsity := []*SparsityMetrics{NewSparsityMetrics(r), NewServingSparsityMetrics(r), nil}
	bundles := map[string]any{
		"train":     NewTrainMetrics(r),
		"infer":     infer,
		"jobs":      NewJobsMetrics(r),
		"http":      NewHTTPMetrics(r),
		"gateway":   NewGatewayMetrics(r),
		"registry":  NewRegistryMetrics(r),
		"slo":       slo,
		"objective": slo.Objective("latency"),
		"account":   acct,
		"limit":     lim,
		"endpoint":  lim.Endpoint("POST /v1/generate"),
	}

	var (
		counters   []*Counter
		gauges     []*Gauge
		histograms []*Histogram
		cvecs      []*CounterVec
		gvecs      []*GaugeVec
		hvecs      []*HistogramVec
	)
	for name, b := range bundles {
		v := reflect.ValueOf(b).Elem()
		handles := 0
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			handles++
			switch h := v.Field(i).Interface().(type) {
			case *Counter:
				counters = append(counters, h)
			case *Gauge:
				gauges = append(gauges, h)
			case *Histogram:
				histograms = append(histograms, h)
			case *CounterVec:
				cvecs = append(cvecs, h)
			case *GaugeVec:
				gvecs = append(gvecs, h)
			case *HistogramVec:
				hvecs = append(hvecs, h)
			default:
				t.Fatalf("%s.%s: unhandled handle type %T", name, v.Type().Field(i).Name, h)
			}
		}
		if handles == 0 {
			t.Fatalf("bundle %s exposes no handles: the walk is vacuous", name)
		}
	}
	for _, c := range counters {
		if c != nil {
			t.Fatal("a nil registry handed out a live counter")
		}
	}

	touch := func() {
		for _, c := range counters {
			c.Inc()
			c.Add(2)
			_ = c.Value()
		}
		for _, g := range gauges {
			g.Set(1)
			g.Add(1)
			g.Inc()
			g.Dec()
		}
		for _, h := range histograms {
			h.Observe(0.5)
			h.ObserveExemplar(0.5, "4bf92f3577b34da6a3ce929d0e0e4736")
		}
		for _, v := range cvecs {
			v.With("a", "b").Inc()
		}
		for _, v := range gvecs {
			v.With("a").Set(1)
		}
		for _, v := range hvecs {
			v.With("a").Observe(0.5)
		}
		for _, reason := range [...]string{"stop", "length", "max_seq", "cancelled", "error"} {
			infer.Retired(reason).Inc()
		}
		for _, kind := range [...]string{"generate", "finetune", "experiment", "train"} {
			acct.Event(kind).Inc()
		}
		for _, m := range sparsity {
			m.SetAttn(3, 0.5)
			m.SetMLP(3, 0.25)
		}
	}
	touch() // must not panic
	if allocs := testing.AllocsPerRun(100, touch); allocs != 0 {
		t.Fatalf("updating no-op handles allocates %.0f/op, want 0", allocs)
	}
}
