package slo

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"longexposure/internal/events"
	"longexposure/internal/obs"
)

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"5m"`), &d); err != nil || d.Std() != 5*time.Minute {
		t.Fatalf(`"5m" -> %v, err %v`, d.Std(), err)
	}
	if err := json.Unmarshal([]byte(`2.5`), &d); err != nil || d.Std() != 2500*time.Millisecond {
		t.Fatalf(`2.5 -> %v, err %v`, d.Std(), err)
	}
	if err := json.Unmarshal([]byte(`"nope"`), &d); err == nil {
		t.Fatal("bad duration accepted")
	}
	b, err := json.Marshal(Duration(90 * time.Second))
	if err != nil || string(b) != `"1m30s"` {
		t.Fatalf("marshal: %s, %v", b, err)
	}
}

func TestConfigValidation(t *testing.T) {
	good := Objective{Name: "a", Kind: KindLatency, Route: "GET /x", Threshold: 0.1, Target: 0.99}
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{Objectives: []Objective{good}}, true},
		{"default config", DefaultConfig(), true},
		{"no name", Config{Objectives: []Objective{{Kind: KindJobFailure, Target: 0.9}}}, false},
		{"bad target", Config{Objectives: []Objective{{Name: "a", Kind: KindJobFailure, Target: 1.5}}}, false},
		{"latency no route", Config{Objectives: []Objective{{Name: "a", Kind: KindLatency, Threshold: 1, Target: 0.9}}}, false},
		{"latency no threshold", Config{Objectives: []Objective{{Name: "a", Kind: KindLatency, Route: "x", Target: 0.9}}}, false},
		{"unknown kind", Config{Objectives: []Objective{{Name: "a", Kind: "nope", Target: 0.9}}}, false},
		{"dup names", Config{Objectives: []Objective{good, good}}, false},
		{"drift bad signal", Config{Objectives: []Objective{{Name: "a", Kind: KindDensityDrift, Expected: 0.5, Threshold: 0.1, Signal: "conv", Target: 0.9}}}, false},
		{"drift valid", Config{Objectives: []Objective{{Name: "a", Kind: KindDensityDrift, Expected: 0.5, Threshold: 0.1, Target: 0.9}}}, true},
		{"inverted windows", Config{Windows: Windows{FastShort: Duration(2 * time.Hour)}}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slo.json")
	body := `{
		"interval": "1s",
		"windows": {"fast_short": "10s", "fast_long": "1m", "for": 2},
		"objectives": [
			{"name": "lat", "kind": "latency", "route": "GET /x", "threshold": 0.25, "target": 0.99, "critical": true}
		]
	}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Interval.Std() != time.Second || cfg.Windows.FastShort.Std() != 10*time.Second ||
		cfg.Windows.For.Std() != 2*time.Second || !cfg.Objectives[0].Critical {
		t.Fatalf("parsed config wrong: %+v", cfg)
	}
	if _, err := LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	os.WriteFile(path, []byte(`{"objectives": [{}]}`), 0o644)
	if _, err := LoadConfig(path); err == nil {
		t.Fatal("invalid objective accepted")
	}
}

func TestSampleRing(t *testing.T) {
	ring := events.NewRing[sample](4)
	r := &ring
	if _, ok := before(r, 100); ok {
		t.Fatal("empty ring reported a sample")
	}
	for i := 1; i <= 6; i++ { // overwrites 1 and 2
		r.Put(sample{t: int64(i * 10), total: float64(i)})
	}
	// Retained: t=30..60. Exact hit, between, before-history, after-all.
	if s, _ := before(r, 40); s.total != 4 {
		t.Fatalf("before(40) = %+v", s)
	}
	if s, _ := before(r, 45); s.total != 4 {
		t.Fatalf("before(45) = %+v", s)
	}
	if s, _ := before(r, 5); s.total != 3 {
		t.Fatalf("before(5) should fall back to oldest, got %+v", s)
	}
	if s, _ := before(r, 999); s.total != 6 {
		t.Fatalf("before(999) = %+v", s)
	}
}

// testWindows are tight enough to drive a full alert lifecycle in a few
// dozen synthetic 1s ticks.
func testWindows() Windows {
	return Windows{
		FastShort: Duration(10 * time.Second), FastLong: Duration(time.Minute), FastBurn: 10,
		SlowShort: Duration(30 * time.Second), SlowLong: Duration(2 * time.Minute), SlowBurn: 5,
		For: Duration(2 * time.Second),
	}
}

func TestAlertLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	httpm := obs.NewHTTPMetrics(reg)
	lat := httpm.Latency.With("GET /x")

	cfg := Config{
		Interval: Duration(time.Second),
		Windows:  testWindows(),
		Objectives: []Objective{{
			Name: "lat", Kind: KindLatency, Route: "GET /x",
			Threshold: 1e-6, Target: 0.99, Critical: true,
		}},
	}
	eng, err := New(cfg, Deps{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := eng.SubscribeAlerts()
	defer cancel()

	now := time.Unix(1_700_000_000, 0)
	eng.Tick(now) // no data yet: route never hit

	if ok, _ := eng.Healthy(); !ok {
		t.Fatal("engine unhealthy before any alert")
	}

	// Violate the objective: every request is slower than 1µs.
	state := func() float64 {
		v, _ := reg.Value("lexp_slo_alert_state", "lat")
		return v
	}
	for i := 0; i < 10; i++ {
		lat.Observe(0.25)
		now = now.Add(time.Second)
		eng.Tick(now)
	}
	if got := state(); got != 2 {
		t.Fatalf("alert state gauge = %v, want 2 (firing)", got)
	}
	if ok, status := eng.Healthy(); ok || status != "slo_firing" {
		t.Fatalf("critical firing must fail health, got (%v, %q)", ok, status)
	}
	if v, _ := reg.Value("lexp_slo_alerts_firing"); v != 1 {
		t.Fatalf("lexp_slo_alerts_firing = %v", v)
	}
	if v, _ := reg.Value("lexp_slo_error_budget_remaining", "lat"); v >= 1 {
		t.Fatalf("budget remaining %v, want < 1 while burning", v)
	}

	// Recovery: stop traffic; the short windows drain and the alert
	// resolves (the multi-window rule: the long window alone cannot hold
	// it firing).
	for i := 0; i < 40; i++ {
		now = now.Add(time.Second)
		eng.Tick(now)
	}
	if got := state(); got != 3 {
		t.Fatalf("alert state gauge = %v, want 3 (resolved)", got)
	}
	if ok, _ := eng.Healthy(); !ok {
		t.Fatal("engine still unhealthy after resolve")
	}

	// The stream saw the full lifecycle, in order.
	var states []string
	timeout := time.After(5 * time.Second)
	for len(states) < 3 {
		select {
		case e := <-ch:
			states = append(states, e.State)
			if e.Seq != int64(len(states)) {
				t.Fatalf("transition %d carries seq %d (seqs count from 1)", len(states), e.Seq)
			}
		case <-timeout:
			t.Fatalf("timed out waiting for transitions, got %v", states)
		}
	}
	want := []string{StatePending, StateFiring, StateResolved}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", states, want)
		}
	}
	for _, s := range want {
		if v, _ := reg.Value("lexp_slo_alert_transitions_total", "lat", s); v != 1 {
			t.Fatalf("transitions{%s} = %v, want 1", s, v)
		}
	}

	// Report reflects the resolved objective.
	rep := eng.Report()
	if len(rep.Objectives) != 1 || rep.Objectives[0].State != StateResolved || !rep.Objectives[0].HasData {
		t.Fatalf("report = %+v", rep.Objectives)
	}

	eng.Stop()
	for range ch { // closes after Stop
	}
}

func TestPendingClearsWithoutFiring(t *testing.T) {
	reg := obs.NewRegistry()
	httpm := obs.NewHTTPMetrics(reg)
	lat := httpm.Latency.With("GET /x")
	cfg := Config{
		Interval: Duration(time.Second),
		Windows: Windows{
			FastShort: Duration(5 * time.Second), FastLong: Duration(10 * time.Second), FastBurn: 10,
			SlowShort: Duration(15 * time.Second), SlowLong: Duration(30 * time.Second), SlowBurn: 5,
			// Longer than the burst survives in ANY window (the slow rule
			// stays active ~slow_short past the burst), so the alert never
			// graduates from pending.
			For: Duration(30 * time.Second),
		},
		Objectives: []Objective{{Name: "lat", Kind: KindLatency, Route: "GET /x", Threshold: 1e-6, Target: 0.99}},
	}
	eng, err := New(cfg, Deps{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	eng.Tick(now)
	for i := 0; i < 3; i++ { // a short burst
		lat.Observe(1)
		now = now.Add(time.Second)
		eng.Tick(now)
	}
	if v, _ := reg.Value("lexp_slo_alert_state", "lat"); v != 1 {
		t.Fatalf("state = %v, want 1 (pending)", v)
	}
	for i := 0; i < 30; i++ {
		now = now.Add(time.Second)
		eng.Tick(now)
	}
	if v, _ := reg.Value("lexp_slo_alert_state", "lat"); v != 0 {
		t.Fatalf("state = %v, want 0 (inactive: pending cleared silently)", v)
	}
	if v, _ := reg.Value("lexp_slo_alert_transitions_total", "lat", StateFiring); v != 0 {
		t.Fatal("a cleared pending must never fire")
	}
	eng.Stop()
}

func TestSources(t *testing.T) {
	t.Run("availability", func(t *testing.T) {
		reg := obs.NewRegistry()
		httpm := obs.NewHTTPMetrics(reg)
		src, err := newSource(reg, Objective{Name: "a", Kind: KindAvailability, Route: "GET /x", Target: 0.99})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := src.sample(); ok {
			t.Fatal("availability reported data before any request")
		}
		httpm.Requests.With("GET /x", "2xx").Add(9)
		httpm.Requests.With("GET /x", "5xx").Add(1)
		httpm.Requests.With("GET /other", "5xx").Add(100) // scoped out
		good, total, ok := src.sample()
		if !ok || total != 10 || good != 9 {
			t.Fatalf("availability = (%g, %g, %v)", good, total, ok)
		}
	})
	t.Run("queue_wait", func(t *testing.T) {
		reg := obs.NewRegistry()
		lm := obs.NewLimitMetrics(reg).Endpoint("generate")
		src, err := newSource(reg, Objective{Name: "q", Kind: KindQueueWait, Route: "generate", Threshold: 0.001, Target: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		lm.WaitSeconds.Observe(1e-6) // good: under threshold
		lm.WaitSeconds.Observe(0.5)  // bad: over
		lm.ShedQueueFull.Inc()       // bad
		lm.ShedTimeout.Inc()         // bad
		lm.ShedDraining.Inc()        // deliberate shed: not counted
		good, total, ok := src.sample()
		if !ok || good != 1 || total != 4 {
			t.Fatalf("queue_wait = (%g, %g, %v), want (1, 4, true)", good, total, ok)
		}
	})
	t.Run("job_failure", func(t *testing.T) {
		reg := obs.NewRegistry()
		jm := obs.NewJobsMetrics(reg)
		src, err := newSource(reg, Objective{Name: "j", Kind: KindJobFailure, Target: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		jm.Done.Add(8)
		jm.Failed.Add(2)
		jm.Cancelled.Add(5) // user action: excluded
		good, total, ok := src.sample()
		if !ok || good != 8 || total != 10 {
			t.Fatalf("job_failure = (%g, %g, %v), want (8, 10, true)", good, total, ok)
		}
	})
	t.Run("density_drift", func(t *testing.T) {
		reg := obs.NewRegistry()
		sm := obs.NewServingSparsityMetrics(reg)
		src, err := newSource(reg, Objective{Name: "d", Kind: KindDensityDrift, Expected: 0.5, Threshold: 0.1, Target: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := src.sample(); ok {
			t.Fatal("drift reported data before any layer gauge")
		}
		sm.SetMLP(0, 0.5)
		sm.SetMLP(1, 0.52)
		if good, total, ok := src.sample(); !ok || good != 1 || total != 1 {
			t.Fatalf("in-tolerance tick = (%g, %g, %v)", good, total, ok)
		}
		sm.SetMLP(0, 0.9) // mean 0.71: drifted
		sm.SetMLP(1, 0.9)
		if good, total, _ := src.sample(); good != 1 || total != 2 {
			t.Fatalf("drifted tick = (%g, %g)", good, total)
		}
	})
	t.Run("density_drift_attn_signal", func(t *testing.T) {
		reg := obs.NewRegistry()
		sm := obs.NewServingSparsityMetrics(reg)
		sm.SetAttn(0, 0.5)
		src, _ := newSource(reg, Objective{Name: "d", Kind: KindDensityDrift, Signal: "attn", Expected: 0.5, Threshold: 0.1, Target: 0.9})
		if _, total, ok := src.sample(); !ok || total != 1 {
			t.Fatal("attn signal not wired")
		}
	})
}

func TestEngineStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		Interval:   Duration(10 * time.Millisecond),
		Windows:    testWindows(),
		Objectives: []Objective{{Name: "j", Kind: KindJobFailure, Target: 0.9}},
	}
	eng, err := New(cfg, Deps{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := reg.Value("lexp_slo_evaluations_total"); v >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background loop never ticked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	eng.Stop()
	eng.Stop() // idempotent
}

func TestNewRejectsBadDeps(t *testing.T) {
	if _, err := New(Config{}, Deps{}); err == nil {
		t.Fatal("nil Metrics accepted")
	}
	bad := Config{Objectives: []Objective{{Name: "x", Kind: "nope", Target: 0.9}}}
	if _, err := New(bad, Deps{Metrics: obs.NewRegistry()}); err == nil {
		t.Fatal("invalid config accepted")
	}
}
