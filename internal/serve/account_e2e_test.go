package serve_test

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"longexposure/internal/account"
	"longexposure/internal/jobs"
	"longexposure/internal/obs"
	"longexposure/internal/registry"
	"longexposure/internal/serve"
	"longexposure/internal/trace"
)

// acctEnv is a fully instrumented server: registry-backed gateway,
// metrics, tracing, and the wide-event accounting plane persisting to
// dir (so tests can reopen it and check replay).
type acctEnv struct {
	*env
	obsReg *obs.Registry
	plane  *account.Plane
	dir    string
}

func newAccountEnv(t *testing.T, workers int) *acctEnv {
	t.Helper()
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	obsReg := obs.NewRegistry()
	plane, err := account.New(account.Config{Dir: dir, Metrics: obs.NewAccountMetrics(obsReg)})
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New(trace.Config{SampleRatio: 1, Seed: 11})
	store := jobs.NewStore(jobs.Config{Workers: workers, Registry: reg, Obs: obsReg, Tracer: tracer, Account: plane})
	srv := serve.New(store,
		serve.WithRegistry(reg, 2),
		serve.WithMetrics(obsReg),
		serve.WithTracing(tracer),
		serve.WithAccounting(plane),
	)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
		plane.Close()
	})
	return &acctEnv{env: &env{t: t, store: store, ts: ts}, obsReg: obsReg, plane: plane, dir: dir}
}

// simBase is a 4-layer client-supplied base description: auto-mode
// sparsity keeps the first and last layers dense, so a ≥3-layer base is
// required for any saving to be attributable at all.
func simBase() map[string]any {
	return map[string]any{"model": "OPT-125M", "activation": "relu", "seed": 1, "blk": 8, "prime": true}
}

// generateAs posts a tenant-stamped /v1/generate and drains the SSE
// stream to its done frame, returning the finish reason.
func (e *acctEnv) generateAs(tenant string, sparsity map[string]any) string {
	e.t.Helper()
	body := map[string]any{
		"base": simBase(), "prompt": []int{5, 6, 7},
		"decode": map[string]any{"sampling": map[string]any{"max_tokens": 6}},
	}
	if sparsity != nil {
		body["decode"].(map[string]any)["sparsity"] = sparsity
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		e.t.Fatal(err)
	}
	req, err := http.NewRequest("POST", e.ts.URL+"/v1/generate", &buf)
	if err != nil {
		e.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		e.t.Fatalf("POST /v1/generate as %s: %d: %s", tenant, resp.StatusCode, out)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var done struct {
				Reason string `json:"reason"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &done); err != nil {
				e.t.Fatal(err)
			}
			return done.Reason
		case strings.HasPrefix(line, "data: ") && event == "error":
			e.t.Fatalf("error frame: %s", line)
		}
	}
	e.t.Fatal("stream ended without done frame")
	return ""
}

// getJSON fetches a path and decodes the JSON body into out.
func (e *acctEnv) getJSON(path string, out any) {
	e.t.Helper()
	resp, body := e.do("GET", path, nil)
	if resp.StatusCode != http.StatusOK {
		e.t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		e.t.Fatalf("GET %s: bad body %s: %v", path, body, err)
	}
}

// waitEvents polls until the plane holds want events matching f.
func (e *acctEnv) waitEvents(f account.Filter, want int) []account.Event {
	e.t.Helper()
	var evs []account.Event
	for i := 0; i < 1000; i++ {
		if evs = e.plane.Events(f); len(evs) >= want {
			return evs
		}
		time.Sleep(2 * time.Millisecond)
	}
	e.t.Fatalf("plane holds %d events matching %+v, want %d", len(evs), f, want)
	return nil
}

type usageBody struct {
	Tenants map[string]account.Usage `json:"tenants"`
	Total   account.Usage            `json:"total"`
}

type eventsBody struct {
	Count  int             `json:"count"`
	Events []account.Event `json:"events"`
}

// TestAccountingEndToEnd is the acceptance walk-through for the
// accounting plane over HTTP: two tenants drive sparse generate traffic,
// and the per-tenant /v1/usage rollups must agree with the raw
// /debug/events records (joined per tenant and per trace id) and with
// the global lexp_account_* counters; auto-mode sparsity attributes a
// positive saving while forced density 1.0 attributes exactly zero; and
// a plane reopened over the same directory replays the same totals.
func TestAccountingEndToEnd(t *testing.T) {
	e := newAccountEnv(t, 1)

	// alpha: two auto-sparsity requests (4-layer base → saving > 0).
	// beta: one forced density-1.0 request (saving == 0 exactly).
	for i := 0; i < 2; i++ {
		if r := e.generateAs("alpha", map[string]any{"mode": "auto"}); r != "length" {
			t.Fatalf("alpha finish reason %q", r)
		}
	}
	if r := e.generateAs("beta", map[string]any{"mode": "forced", "mlp_density": 1.0, "attn_density": 1.0}); r != "length" {
		t.Fatalf("beta finish reason %q", r)
	}
	e.waitEvents(account.Filter{Kind: account.KindGenerate}, 3)

	// Raw event surface: identities stamped, FLOP attribution per mode.
	var evs eventsBody
	e.getJSON("/debug/events?kind=generate", &evs)
	if evs.Count != 3 || len(evs.Events) != 3 {
		t.Fatalf("GET /debug/events: %d events, want 3", evs.Count)
	}
	var alphaSaved int64
	for _, ev := range evs.Events {
		if ev.Route != "POST /v1/generate" || ev.Base != "sim-OPT-125M" || ev.Outcome != "length" {
			t.Fatalf("event identity: %+v", ev)
		}
		if ev.TraceID == "" {
			t.Fatalf("event has no trace id: %+v", ev)
		}
		switch ev.Tenant {
		case "alpha":
			alphaSaved += ev.SavedFLOPs()
		case "beta":
			if ev.DenseFLOPs != ev.ExecFLOPs || ev.SavedFLOPs() != 0 {
				t.Fatalf("forced 1.0: dense %d exec %d saved %d", ev.DenseFLOPs, ev.ExecFLOPs, ev.SavedFLOPs())
			}
		default:
			t.Fatalf("unexpected tenant %q", ev.Tenant)
		}
	}
	if alphaSaved <= 0 {
		t.Fatal("auto sparsity on a 4-layer base attributed no saving")
	}

	// Join by trace id: each event is retrievable alone.
	for _, ev := range evs.Events {
		var one eventsBody
		e.getJSON("/debug/events?trace_id="+ev.TraceID, &one)
		if one.Count != 1 || one.Events[0].Tenant != ev.Tenant {
			t.Fatalf("trace join %s: %+v", ev.TraceID, one)
		}
	}

	// /v1/usage must agree with the events and the global counters.
	var u usageBody
	e.getJSON("/v1/usage", &u)
	if len(u.Tenants) != 2 || u.Tenants["alpha"].Requests != 2 || u.Tenants["beta"].Requests != 1 {
		t.Fatalf("usage tenants: %+v", u.Tenants)
	}
	var evSum account.Usage
	for _, ev := range evs.Events {
		evSum.Requests++
		evSum.PromptTokens += ev.PromptTokens
		evSum.OutputTokens += ev.OutputTokens
		evSum.DenseFLOPs += ev.DenseFLOPs
		evSum.ExecFLOPs += ev.ExecFLOPs
		evSum.SavedFLOPs += ev.SavedFLOPs()
	}
	if u.Total != evSum {
		t.Fatalf("usage total %+v != event sum %+v", u.Total, evSum)
	}
	if u.Tenants["beta"].SavedFLOPs != 0 {
		t.Fatalf("beta usage attributes saving: %+v", u.Tenants["beta"])
	}
	for metric, want := range map[string]int64{
		"lexp_account_prompt_tokens_total":  evSum.PromptTokens,
		"lexp_account_output_tokens_total":  evSum.OutputTokens,
		"lexp_account_flops_dense_total":    evSum.DenseFLOPs,
		"lexp_account_flops_executed_total": evSum.ExecFLOPs,
	} {
		if v, ok := e.obsReg.Value(metric); !ok || int64(v) != want {
			t.Fatalf("%s = %v (ok=%v), want %d", metric, v, ok, want)
		}
	}
	if saved, _, _ := e.obsReg.SumValues("lexp_flops_saved_total"); int64(saved) != evSum.SavedFLOPs {
		t.Fatalf("lexp_flops_saved_total %v != %d", saved, evSum.SavedFLOPs)
	}

	// ?tenant= narrows the usage map; ?agg= rolls events up.
	var one usageBody
	e.getJSON("/v1/usage?tenant=alpha", &one)
	if len(one.Tenants) != 1 || one.Tenants["alpha"].Requests != 2 {
		t.Fatalf("usage?tenant=alpha: %+v", one.Tenants)
	}
	var agg struct {
		Count int               `json:"count"`
		Sum   account.Aggregate `json:"sum"`
	}
	e.getJSON("/debug/events?kind=generate&agg=sum", &agg)
	if agg.Count != 3 || agg.Sum.DenseFLOPs != evSum.DenseFLOPs || agg.Sum.SavedFLOPs != evSum.SavedFLOPs {
		t.Fatalf("agg=sum: %+v vs %+v", agg, evSum)
	}
	var pct struct {
		Count      int               `json:"count"`
		Percentile account.Quantiles `json:"percentile"`
	}
	e.getJSON("/debug/events?agg=p50", &pct)
	if pct.Count != 3 || pct.Percentile.TotalNs <= 0 {
		t.Fatalf("agg=p50: %+v", pct)
	}
	for _, bad := range []string{"?agg=bogus", "?agg=p0", "?agg=p101", "?since=notatime", "?limit=x"} {
		if resp, body := e.do("GET", "/debug/events"+bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /debug/events%s: %d (%s), want 400", bad, resp.StatusCode, body)
		}
	}

	// Crash tolerance: a second plane over the same directory replays the
	// same ledger from the segmented log.
	replayed, err := account.New(account.Config{Dir: e.dir})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	tenants, total := replayed.UsageByTenant()
	if total != u.Total || tenants["alpha"] != u.Tenants["alpha"] || tenants["beta"] != u.Tenants["beta"] {
		t.Fatalf("replayed usage %+v / %+v != served %+v", tenants, total, u)
	}
}

// TestJobsTenantFilter pins the tenant capture on job submission and the
// ?tenant= filter on GET /v1/jobs: totals (X-Total-Count) follow the
// filtered set, and terminal jobs land in the accounting plane under the
// submitting tenant.
func TestJobsTenantFilter(t *testing.T) {
	e := newAccountEnv(t, 2)
	submitAs := func(tenant string, lr float64) jobs.Job {
		t.Helper()
		spec := map[string]any{"kind": "finetune", "finetune": map[string]any{
			"method": "lora", "sparse": false,
			"steps": 1, "batch": 1, "seq": 8, "epochs": 1, "lr": lr,
		}}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(spec); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest("POST", e.ts.URL+"/v1/jobs", &buf)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-API-Key", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs as %s: %d: %s", tenant, resp.StatusCode, body)
		}
		var j jobs.Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		return j
	}

	for _, tc := range []struct {
		tenant string
		lr     float64
	}{{"alpha", 1e-3}, {"alpha", 2e-3}, {"beta", 3e-3}} {
		j := submitAs(tc.tenant, tc.lr)
		e.waitStatus(j.ID, jobs.StatusDone)
	}

	cases := []struct {
		query string
		want  int
	}{
		{"?tenant=alpha", 2},
		{"?tenant=beta", 1},
		{"?tenant=nobody", 0},
		{"", 3},
		{"?tenant=alpha&limit=1", 2}, // total counts all matches
	}
	for _, c := range cases {
		resp, body := e.do("GET", "/v1/jobs"+c.query, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs%s: %d: %s", c.query, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Total-Count"); got != strconv.Itoa(c.want) {
			t.Fatalf("GET /v1/jobs%s: X-Total-Count=%s, want %d", c.query, got, c.want)
		}
		var list []jobs.Job
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		for _, j := range list {
			if c.query == "?tenant=alpha" && j.Tenant != "alpha" {
				t.Fatalf("tenant filter leaked job %+v", j)
			}
		}
	}
	if resp, body := e.do("GET", "/v1/jobs?limit=-1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /v1/jobs?limit=-1: %d (%s), want 400", resp.StatusCode, body)
	}

	// Terminal jobs became finetune events under the submitting tenant.
	evs := e.waitEvents(account.Filter{Kind: account.KindFinetune}, 3)
	byTenant := map[string]int{}
	for _, ev := range evs {
		byTenant[ev.Tenant]++
		if ev.Outcome != "done" || ev.TrainSteps == 0 || ev.DenseFLOPs == 0 {
			t.Fatalf("job event: %+v", ev)
		}
	}
	if byTenant["alpha"] != 2 || byTenant["beta"] != 1 {
		t.Fatalf("job events by tenant: %v", byTenant)
	}
}

// TestGzipNegotiation pins transfer-encoding negotiation on the two
// large read surfaces: Accept-Encoding: gzip compresses /metrics (without
// disturbing the OpenMetrics content negotiation) and /debug/events;
// clients that don't advertise gzip get identity bodies.
func TestGzipNegotiation(t *testing.T) {
	e := newAccountEnv(t, 1)
	if r := e.generateAs("zipper", nil); r != "length" {
		t.Fatalf("finish reason %q", r)
	}
	e.waitEvents(account.Filter{}, 1)

	get := func(path string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("GET", e.ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		// Disable the transport's transparent gzip so the negotiated
		// Content-Encoding is observable.
		tr := &http.Transport{DisableCompression: true}
		resp, err := (&http.Client{Transport: tr}).Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	gunzip := func(resp *http.Response) []byte {
		t.Helper()
		defer resp.Body.Close()
		zr, err := gzip.NewReader(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// /metrics: compressed body, classic and OpenMetrics content types.
	resp := get("/metrics", map[string]string{"Accept-Encoding": "gzip"})
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("metrics Content-Encoding %q", resp.Header.Get("Content-Encoding"))
	}
	if body := gunzip(resp); !bytes.Contains(body, []byte("lexp_account_events_total")) {
		t.Fatal("gzipped /metrics body missing account families")
	}
	resp = get("/metrics", map[string]string{"Accept-Encoding": "gzip", "Accept": "application/openmetrics-text"})
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics") {
		t.Fatalf("OpenMetrics negotiation lost under gzip: %q", ct)
	}
	if body := gunzip(resp); !bytes.HasSuffix(bytes.TrimSpace(body), []byte("# EOF")) {
		t.Fatal("gzipped OpenMetrics body missing # EOF terminator")
	}
	resp = get("/metrics", nil)
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("identity /metrics got Content-Encoding %q", enc)
	}
	resp.Body.Close()

	// /debug/events: compressed JSON parses.
	resp = get("/debug/events", map[string]string{"Accept-Encoding": "gzip"})
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("events Content-Encoding %q", resp.Header.Get("Content-Encoding"))
	}
	var evs eventsBody
	if err := json.Unmarshal(gunzip(resp), &evs); err != nil {
		t.Fatal(err)
	}
	if evs.Count != 1 || evs.Events[0].Tenant != "zipper" {
		t.Fatalf("gzipped events body: %+v", evs)
	}
	resp = get("/debug/events", nil)
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("identity /debug/events got Content-Encoding %q", enc)
	}
	resp.Body.Close()
}
