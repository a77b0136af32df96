package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"longexposure/internal/jobs"
	"longexposure/internal/obs"
	"longexposure/internal/slo"
	"longexposure/internal/trace"
)

// sloTestStack is everything the SLO e2e needs: a serve handler with
// metrics, tracing, logging and an SLO engine whose Tick is driven
// manually on a synthetic clock.
type sloTestStack struct {
	store *jobs.Store
	reg   *obs.Registry
	eng   *slo.Engine
	rec   *slo.Recorder
	srv   *Server
	ts    *httptest.Server
	now   time.Time
}

func newSLOStack(t *testing.T, dumpDir string) *sloTestStack {
	t.Helper()
	reg := obs.NewRegistry()
	tr := trace.New(trace.Config{SampleRatio: 1, Capacity: 256, SlowestN: 8, Seed: 11})
	rec := slo.NewRecorder(slo.RecorderConfig{Dir: dumpDir, MaxDumps: 8}, tr)
	logger := slog.New(rec.LogHandler(trace.NewLogHandler(slog.NewTextHandler(io.Discard, nil))))

	cfg := slo.Config{
		Interval: slo.Duration(time.Second),
		Windows: slo.Windows{
			FastShort: slo.Duration(10 * time.Second), FastLong: slo.Duration(time.Minute), FastBurn: 10,
			SlowShort: slo.Duration(30 * time.Second), SlowLong: slo.Duration(2 * time.Minute), SlowBurn: 5,
			For: slo.Duration(2 * time.Second),
		},
		Objectives: []slo.Objective{{
			// Threshold below the first histogram bucket bound (1µs): every
			// real request is an SLO violation, so plain traffic drives the
			// alert lifecycle.
			Name: "healthz-latency", Kind: slo.KindLatency, Route: "GET /healthz",
			Threshold: 1e-7, Target: 0.99, Critical: true,
		}},
	}
	eng, err := slo.New(cfg, slo.Deps{Metrics: reg, Tracer: tr, Logger: logger, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}

	store := jobs.NewStore(jobs.Config{Workers: 1, Obs: reg, Logger: logger})
	srv := New(store,
		WithMetrics(reg),
		WithTracing(tr),
		WithLogger(logger),
		WithSLO(eng),
	)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		store.Shutdown(ctx)
	})
	return &sloTestStack{
		store: store, reg: reg, eng: eng, rec: rec, srv: srv, ts: ts,
		now: time.Unix(1_700_000_000, 0),
	}
}

// tickTraffic makes n requests against the route under objective, one
// engine tick after each.
func (st *sloTestStack) tickTraffic(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, err := http.Get(st.ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		st.now = st.now.Add(time.Second)
		st.eng.Tick(st.now)
	}
}

func (st *sloTestStack) tickQuiet(n int) {
	for i := 0; i < n; i++ {
		st.now = st.now.Add(time.Second)
		st.eng.Tick(st.now)
	}
}

// alertStream subscribes to /v1/alerts and returns a function that
// blocks for the next SSE event frame's (event, data) pair.
func alertStream(t *testing.T, url string) (next func() (string, slo.AlertEvent), stop func()) {
	t.Helper()
	resp, err := http.Get(url + "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("alert stream: status %d, content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	type frame struct {
		event string
		data  slo.AlertEvent
	}
	frames := make(chan frame, 16)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		var f frame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f.data)
			case line == "" && f.event != "":
				frames <- f
				f = frame{}
			}
		}
	}()
	next = func() (string, slo.AlertEvent) {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("alert stream closed early")
			}
			return f.event, f.data
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for alert frame")
			return "", slo.AlertEvent{}
		}
	}
	return next, func() { resp.Body.Close() }
}

// TestSLOAlertLifecycleEndToEnd is the acceptance path: real traffic
// through a serve test server violates a latency objective; the alert
// walks pending -> firing on the /v1/alerts stream and in the lexp_slo_*
// metrics, readiness fails while the critical alert fires, the
// flight recorder dumps a correlated black box at the firing edge, and
// recovery resolves the alert and readiness.
func TestSLOAlertLifecycleEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st := newSLOStack(t, dir)

	next, stop := alertStream(t, st.ts.URL)
	defer stop()

	st.eng.Tick(st.now) // baseline: route not yet hit, no data
	st.tickTraffic(t, 8)

	if ev, e := next(); ev != slo.StatePending || e.Objective != "healthz-latency" {
		t.Fatalf("first frame = (%s, %+v), want pending", ev, e)
	}
	if ev, e := next(); ev != slo.StateFiring || !e.Critical {
		t.Fatalf("second frame = (%s, %+v), want critical firing", ev, e)
	}

	if v, _ := st.reg.Value("lexp_slo_alert_state", "healthz-latency"); v != 2 {
		t.Fatalf("lexp_slo_alert_state = %v, want 2 (firing)", v)
	}

	// A critical firing objective fails readiness.
	resp, err := http.Get(st.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "slo_firing") {
		t.Fatalf("readyz while firing = %d %s", resp.StatusCode, body)
	}

	// The firing edge produced exactly one flight-recorder dump, and it
	// correlates all four axes: alerts, logs, span trees, metric deltas.
	dumps := st.rec.List()
	if len(dumps) != 1 || !strings.Contains(dumps[0].Name, "alert-firing-healthz-latency") {
		t.Fatalf("dumps = %+v, want one alert-firing dump", dumps)
	}
	raw, err := os.ReadFile(filepath.Join(dir, dumps[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	var d slo.Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump not valid JSON: %v", err)
	}
	if len(d.Alerts) == 0 || d.Alerts[len(d.Alerts)-1].State != slo.StateFiring {
		t.Fatalf("dump alerts = %+v", d.Alerts)
	}
	if len(d.Logs) == 0 {
		t.Fatal("dump captured no slog records")
	}
	var reqLogs int
	for _, lr := range d.Logs {
		if lr.Attrs["route"] == "GET /healthz" {
			reqLogs++
			if lr.TraceID == "" {
				t.Fatal("request log record lost its trace id")
			}
		}
	}
	if reqLogs == 0 {
		t.Fatalf("no request records among %d captured logs", len(d.Logs))
	}
	var spanTrees int
	for _, rec := range d.RecentTraces {
		for _, root := range rec.Roots {
			if root.Name == "http.request" {
				spanTrees++
			}
		}
	}
	if spanTrees == 0 {
		t.Fatal("dump has no http.request span trees")
	}
	if len(d.MetricDeltas) == 0 {
		t.Fatal("dump has no metric tick deltas")
	}
	lastTick := d.MetricDeltas[len(d.MetricDeltas)-1].Objectives
	if len(lastTick) != 1 || lastTick[0].DTotal <= 0 {
		t.Fatalf("newest tick delta = %+v, want DTotal > 0", lastTick)
	}

	// Recovery: quiet ticks drain the violation out of every window.
	st.tickQuiet(40)
	if ev, _ := next(); ev != slo.StateResolved {
		t.Fatalf("third frame = %s, want resolved", ev)
	}
	if v, _ := st.reg.Value("lexp_slo_alert_state", "healthz-latency"); v != 3 {
		t.Fatalf("lexp_slo_alert_state = %v, want 3 (resolved)", v)
	}
	resp, err = http.Get(st.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery = %d, want 200", resp.StatusCode)
	}

	// The exposition surface carries the whole lexp_slo_* family.
	resp, err = http.Get(st.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`lexp_slo_alert_state{objective="healthz-latency"} 3`,
		`lexp_slo_alert_transitions_total{objective="healthz-latency",state="firing"} 1`,
		"lexp_slo_evaluations_total",
		"lexp_slo_error_budget_remaining",
		"lexp_slo_burn_rate",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestDebugSLOAndFlightRecorderEndpoints(t *testing.T) {
	st := newSLOStack(t, t.TempDir())
	st.eng.Tick(st.now)
	st.tickTraffic(t, 8) // drive to firing so the report has content

	resp, err := http.Get(st.ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep slo.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rep.Objectives) != 1 || rep.Objectives[0].Name != "healthz-latency" {
		t.Fatalf("report objectives = %+v", rep.Objectives)
	}
	o := rep.Objectives[0]
	if o.State != slo.StateFiring || o.BudgetRemaining >= 1 || !o.HasData {
		t.Fatalf("firing objective status = %+v", o)
	}

	resp, err = http.Get(st.ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	var fr struct {
		Snapshot slo.Dump       `json:"snapshot"`
		Dumps    []slo.DumpFile `json:"dumps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fr.Snapshot.Reason != "debug-endpoint" || len(fr.Snapshot.MetricDeltas) == 0 {
		t.Fatalf("flight recorder snapshot = reason %q, %d deltas", fr.Snapshot.Reason, len(fr.Snapshot.MetricDeltas))
	}
	if len(fr.Dumps) != 1 {
		t.Fatalf("flight recorder lists %d dumps, want 1", len(fr.Dumps))
	}
}

// TestAlertStreamEndsOnShutdown verifies a hanging /v1/alerts consumer
// cannot pin a draining server.
func TestAlertStreamEndsOnShutdown(t *testing.T) {
	st := newSLOStack(t, t.TempDir())
	resp, err := http.Get(st.ts.URL + "/v1/alerts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan error, 1)
	go func() {
		_, err := io.ReadAll(resp.Body) // blocks until the stream ends
		done <- err
	}()
	ctx, cancelCtx := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelCtx()
	if err := st.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("alert stream still open after Shutdown")
	}
}

func TestDebugTracesTraceIDFilter(t *testing.T) {
	st := newSLOStack(t, t.TempDir())

	resp, err := http.Get(st.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("traced request returned no X-Trace-Id header")
	}

	get := func(q string) (int, []byte) {
		resp, err := http.Get(st.ts.URL + "/debug/traces" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}

	code, body := get("?trace_id=" + traceID)
	if code != http.StatusOK {
		t.Fatalf("exact-trace lookup = %d %s", code, body)
	}
	var tr tracesResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Recent) != 1 || tr.Recent[0].TraceID != traceID {
		t.Fatalf("filter returned %+v, want exactly trace %s", tr.Recent, traceID)
	}
	if len(tr.Recent[0].Roots) == 0 || tr.Recent[0].Roots[0].Name != "http.request" {
		t.Fatalf("filtered trace roots = %+v", tr.Recent[0].Roots)
	}

	if code, _ := get("?trace_id=not-hex"); code != http.StatusBadRequest {
		t.Fatalf("malformed id = %d, want 400", code)
	}
	if code, _ := get("?trace_id=" + strings.Repeat("0", 32)); code != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", code)
	}
}

// BenchmarkSLO times GET /readyz without and with an SLO engine attached,
// the one request-path surface the SLO plane joins: the pair shows what
// the plane adds to every readiness probe.
func BenchmarkSLO(b *testing.B) {
	for _, withSLO := range []bool{false, true} {
		name := "readyz_disabled"
		if withSLO {
			name = "readyz_enabled"
		}
		b.Run(name, func(b *testing.B) {
			store := jobs.NewStore(jobs.Config{Workers: 1})
			defer store.Shutdown(context.Background())
			var opts []Option
			if withSLO {
				cfg := slo.Config{Objectives: []slo.Objective{{Name: "jobs", Kind: slo.KindJobFailure, Target: 0.9}}}
				eng, err := slo.New(cfg, slo.Deps{Metrics: obs.NewRegistry()})
				if err != nil {
					b.Fatal(err)
				}
				eng.Tick(time.Unix(1_700_000_000, 0))
				opts = append(opts, WithSLO(eng))
			}
			handler := New(store, opts...).Handler()
			req := httptest.NewRequest("GET", "/readyz", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rw := httptest.NewRecorder()
				handler.ServeHTTP(rw, req)
				if rw.Code != http.StatusOK {
					b.Fatalf("readyz = %d, want 200", rw.Code)
				}
			}
		})
	}
}
