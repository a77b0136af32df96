package obs

import (
	"io"
	"math"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter value %v, want 3.5", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative counter add did not panic")
			}
		}()
		c.Add(-1)
	}()

	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge value %v, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "a histogram", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 1000} {
		h.Observe(v)
	}
	snap := r.Gather()
	if len(snap) != 1 || len(snap[0].Points) != 1 {
		t.Fatalf("unexpected snapshot shape: %+v", snap)
	}
	p := snap[0].Points[0]
	// le=1 inclusive: 0.5, 1 → 2; le=10: 1.5, 10 → 2; le=100: 99 → 1; +Inf: 1000.
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if p.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, p.Buckets[i], w, p.Buckets)
		}
	}
	if p.Count != 6 || p.Sum != 0.5+1+1.5+10+99+1000 {
		t.Fatalf("count %d sum %v", p.Count, p.Sum)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("LogBuckets = %v, want %v", b, want)
		}
	}
}

func TestVecChildrenAreStable(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("reqs_total", "requests", "route", "code")
	a := v.With("/x", "2xx")
	b := v.With("/x", "2xx")
	if a != b {
		t.Fatal("With returned distinct children for identical labels")
	}
	a.Inc()
	if got, ok := r.Value("reqs_total", "/x", "2xx"); !ok || got != 1 {
		t.Fatalf("Value = %v, %v", got, ok)
	}
	// Label-value pairs that would collide if joined naively must not.
	v.With("a\x00b", "c").Inc()
	v.With("a", "b\x00c").Inc()
	if n := len(r.Gather()[0].Points); n != 3 {
		t.Fatalf("expected 3 children, got %d", n)
	}
}

func TestDuplicateAndInvalidRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	for name, fn := range map[string]func(){
		"duplicate":     func() { r.Gauge("dup_total", "y") },
		"bad name":      func() { r.Counter("bad-name", "y") },
		"bad label":     func() { r.CounterVec("ok_total", "y", "bad-key") },
		"empty buckets": func() { r.Histogram("h_empty", "y", nil) },
		"bad bounds":    func() { r.Histogram("h_desc", "y", []float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s registration did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// promLine matches a valid sample line: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("lexp_test_total", "counts \"things\"\nnewline", "kind")
	c.With(`quo"te`).Add(2)
	g := r.Gauge("lexp_level", "level")
	g.Set(-1.5)
	h := r.Histogram("lexp_lat_seconds", "latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	samples := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("bad comment line %q", line)
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid exposition line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		samples[line[:sp]] = line[sp+1:]
	}

	for series, want := range map[string]string{
		`lexp_test_total{kind="quo\"te"}`:     "2",
		`lexp_level`:                          "-1.5",
		`lexp_lat_seconds_bucket{le="0.001"}`: "1",
		`lexp_lat_seconds_bucket{le="0.01"}`:  "2",
		`lexp_lat_seconds_bucket{le="+Inf"}`:  "3",
		`lexp_lat_seconds_count`:              "3",
	} {
		if got := samples[series]; got != want {
			t.Fatalf("series %s = %q, want %q\nbody:\n%s", series, got, want, body)
		}
	}
	if sum, err := strconv.ParseFloat(samples["lexp_lat_seconds_sum"], 64); err != nil || math.Abs(sum-5.0055) > 1e-9 {
		t.Fatalf("histogram sum %q", samples["lexp_lat_seconds_sum"])
	}
	if !strings.Contains(body, `# HELP lexp_test_total counts "things"\nnewline`) {
		t.Fatalf("help escaping wrong:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE lexp_lat_seconds histogram") {
		t.Fatalf("missing histogram TYPE:\n%s", body)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "n")
	g := r.Gauge("lvl", "l")
	h := r.Histogram("d", "d", DurationBuckets)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) * 1e-6)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%v g=%v h=%d", c.Value(), g.Value(), h.Count())
	}
}

// TestHotPathZeroAlloc pins the package's core contract: updating any
// instrument through a held handle performs zero heap allocations.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("zc_total", "z")
	g := r.Gauge("zg", "z")
	h := r.Histogram("zh", "z", DurationBuckets)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(float64(i))
		h.Observe(float64(i) * 1e-5)
		i++
	}); n != 0 {
		t.Fatalf("instrument updates allocate %v per op, want 0", n)
	}
}

// BenchmarkObs times the instrument updates TestHotPathZeroAlloc pins:
// one counter add, and one histogram observation plus one gauge set.
func BenchmarkObs(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_counter_total", "bench")
	g := r.Gauge("bench_gauge", "bench")
	h := r.Histogram("bench_seconds", "bench", DurationBuckets)
	b.Run("counter_add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("histogram_observe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i&1023) * 1e-6)
			g.Set(float64(i))
		}
	})
}

func TestBundlesRegisterDisjointNames(t *testing.T) {
	// Every domain bundle on one registry: any name collision panics.
	r := NewRegistry()
	NewTrainMetrics(r)
	NewInferMetrics(r)
	NewJobsMetrics(r)
	NewHTTPMetrics(r)
	NewGatewayMetrics(r)
	NewRegistryMetrics(r)
	sm := NewSparsityMetrics(r)
	lm := NewLimitMetrics(r)
	sm.SetAttn(0, 0.25)
	sm.SetMLP(3, 0.5)
	ep := lm.Endpoint("/v1/generate")
	ep.Admitted.Inc()
	ep.ShedQueueFull.Inc()
	if v, ok := r.Value("lexp_sparse_attn_density", "0"); !ok || v != 0.25 {
		t.Fatalf("sparse attn density = %v, %v", v, ok)
	}
	// After a layer's first observation the handle is cached: repeated
	// sets are allocation-free (they run on the training hot path).
	if n := testing.AllocsPerRun(500, func() { sm.SetAttn(0, 0.5); sm.SetMLP(3, 0.25) }); n != 0 {
		t.Fatalf("warm sparsity sets allocate %v per op, want 0", n)
	}
	if v, ok := r.Value("lexp_limit_shed_total", "/v1/generate", "queue_full"); !ok || v != 1 {
		t.Fatalf("shed counter = %v, %v", v, ok)
	}
}
