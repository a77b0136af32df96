// Package serve exposes the job subsystem (internal/jobs) and the
// inference gateway (internal/infer + internal/registry) as a JSON HTTP
// API — the full train → publish → serve loop over the Long Exposure
// reproduction:
//
//	POST   /v1/jobs             submit a job (202; 200 on a cache hit)
//	GET    /v1/jobs             list jobs; ?status=/?tenant= filter, ?limit=/?offset= pages
//	GET    /v1/jobs/{id}        one job
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/events server-sent event stream (replay + live)
//	GET    /v1/experiments      registered experiment catalogue
//	GET    /v1/adapters         published adapter artifacts (WithRegistry)
//	GET    /v1/adapters/{id}    one adapter manifest
//	DELETE /v1/adapters/{id}    delete an adapter artifact
//	POST   /v1/generate         KV-cached token generation (SSE stream)
//	GET    /v1/alerts           SLO alert-transition stream (SSE, WithSLO)
//	GET    /v1/usage            per-tenant usage rollups (WithAccounting)
//	GET    /debug/events        wide-event ring with filters and ?agg= rollups
//	GET    /healthz             liveness + queue stats
//	GET    /readyz              readiness (503 while draining/shedding/slo_firing)
//	GET    /metrics             Prometheus text exposition (WithMetrics)
//	GET    /debug/slo           objective report + error budgets (WithSLO)
//	GET    /debug/flightrecorder black-box snapshot + dump list (WithSLO)
//
// Shutdown is graceful: in-flight HTTP requests finish and the job store
// drains queued and running jobs before the process exits; /readyz flips
// to 503 the moment the drain starts so load balancers stop routing here.
//
// WithMetrics attaches the observability plane (internal/obs): per-route
// HTTP latency/status, gateway cache and engine instruments, and the
// /metrics endpoint. WithLimits attaches the traffic-control plane
// (internal/limit): per-tenant and global rate limiting plus
// load-shedding admission control on POST /v1/generate and POST /v1/jobs.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"longexposure/internal/account"
	"longexposure/internal/experiments"
	"longexposure/internal/jobs"
	"longexposure/internal/limit"
	"longexposure/internal/obs"
	"longexposure/internal/registry"
	"longexposure/internal/slo"
	"longexposure/internal/trace"
)

// Server wires the job store into an http.Handler and manages graceful
// shutdown of both the listener and the worker pool.
type Server struct {
	store   *jobs.Store
	gw      *gateway // nil without WithRegistry
	mux     *http.ServeMux
	handler http.Handler // mux, wrapped by middleware when configured

	// Observability plane: obs is nil without WithMetrics, and httpm is
	// then a bundle of no-op handles.
	obs   *obs.Registry
	httpm *obs.HTTPMetrics

	// Tracing / logging / profiling plane.
	tracer    *trace.Tracer // nil without WithTracing
	log       *slog.Logger  // nil without WithLogger
	pprof     bool          // WithPprof mounts net/http/pprof
	keepalive time.Duration // WithSSEKeepalive; 0 disables comment frames

	// Traffic-control plane (nil without WithLimits).
	limits     *LimitConfig
	gdGenerate *guard
	gdJobs     *guard

	// SLO plane (nil without WithSLO).
	slo    *slo.Engine
	health []slo.HealthSource // readiness inputs, checked in order

	// Accounting plane (nil without WithAccounting).
	account *account.Plane

	draining     atomic.Bool   // set when Shutdown begins; read by /readyz
	shutdownC    chan struct{} // closed when Shutdown begins; ends /v1/alerts streams
	shutdownOnce sync.Once

	mu     sync.Mutex // guards http/closed against Shutdown from another goroutine
	http   *http.Server
	closed bool
}

// Option configures optional server subsystems.
type Option func(*Server)

// WithRegistry enables the inference gateway over an adapter registry:
// the /v1/adapters CRUD and the /v1/generate streaming endpoint, with up
// to maxBatch sequences stacked into each decode step per shared base
// (<= 0 uses the infer default). Pair it with jobs.Config.Registry on the same store so
// completed fine-tuning jobs are immediately servable.
func WithRegistry(reg *registry.Store, maxBatch int) Option {
	return func(s *Server) {
		s.gw = newGateway(reg, maxBatch)
		s.mux.HandleFunc("GET /v1/adapters", s.listAdapters)
		s.mux.HandleFunc("GET /v1/adapters/{id}", s.getAdapter)
		s.mux.HandleFunc("DELETE /v1/adapters/{id}", s.deleteAdapter)
		s.mux.HandleFunc("POST /v1/generate", s.generate)
	}
}

// WithMetrics attaches a metrics registry: per-route HTTP instruments,
// gateway and generation-engine instruments (when WithRegistry is also
// set), traffic-control instruments (when WithLimits is also set), and
// the GET /metrics exposition endpoint. Pair it with jobs.Config.Obs and
// registry.Store.Instrument on the same registry for full coverage.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.obs = reg }
}

// WithTracing attaches a request tracer: every API request gets a root
// span (honoring an inbound W3C traceparent header), spans thread through
// admission control, the job lifecycle, the training engine, and the
// per-token decode path, and GET /debug/traces serves recent and
// slowest-N span trees. Pair it with jobs.Config.Tracer on the same
// tracer so job spans land in the same ring. When WithMetrics is also
// set, sampled requests attach trace-id exemplars to the HTTP latency
// histograms.
func WithTracing(tr *trace.Tracer) Option {
	return func(s *Server) { s.tracer = tr }
}

// WithLogger attaches a structured request/lifecycle logger. Wrap the
// handler with trace.LogHandler (trace.NewLogger does) so every record
// carries the request's trace and span ids. Pair it with
// jobs.Config.Logger for job lifecycle records.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithPprof mounts net/http/pprof under GET /debug/pprof/. Off by
// default: the profiling surface is opt-in (flag-gated in longexpd), not
// something every deployment should expose.
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithSSEKeepalive emits an SSE comment frame (": keepalive") on the
// /v1/generate and /v1/jobs/{id}/events streams whenever d elapses
// without a real event, so idle streams survive proxies and LBs that
// reap quiet connections. d <= 0 disables (the default — tests and
// embedders opt in explicitly).
func WithSSEKeepalive(d time.Duration) Option {
	return func(s *Server) { s.keepalive = d }
}

// New builds a server over the store.
func New(store *jobs.Store, opts ...Option) *Server {
	s := &Server{store: store, mux: http.NewServeMux(), shutdownC: make(chan struct{})}
	s.mux.HandleFunc("POST /v1/jobs", s.submitJob)
	s.mux.HandleFunc("GET /v1/jobs", s.listJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancelJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.streamEvents)
	s.mux.HandleFunc("GET /v1/experiments", s.listExperiments)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	for _, opt := range opts {
		opt(s)
	}

	// Finalize cross-option wiring now that every option has run (the
	// registry gateway, limits, metrics, and tracing may arrive in any
	// order).
	s.handler = s.mux
	s.httpm = obs.NewHTTPMetrics(s.obs)
	if s.obs != nil {
		s.mux.Handle("GET /metrics", s.obs.Handler())
	}
	if s.gw != nil {
		s.gw.metrics = obs.NewGatewayMetrics(s.obs)
		s.gw.inferMetrics = obs.NewInferMetrics(s.obs)
		s.gw.sparsity = obs.NewServingSparsityMetrics(s.obs)
		s.gw.account = s.account
	}
	if s.tracer != nil {
		s.mux.HandleFunc("GET /debug/traces", s.debugTraces)
	}
	if s.pprof {
		s.mountPprof()
	}
	if s.obs != nil || s.tracer != nil || s.log != nil {
		s.handler = s.observe(s.mux)
	}
	if s.limits != nil {
		lm := obs.NewLimitMetrics(s.obs)
		var limiter *limit.Limiter
		if s.limits.Limit.Enabled() {
			limiter = limit.New(s.limits.Limit)
			limiter.Instrument(lm)
		}
		mk := func(endpoint string) *guard {
			em := lm.Endpoint(endpoint)
			g := &guard{tenantHeader: s.limits.TenantHeader, limiter: limiter, m: em}
			if s.limits.MaxInFlight > 0 {
				g.adm = limit.NewAdmission(limit.AdmissionConfig{
					MaxInFlight: s.limits.MaxInFlight,
					MaxWait:     s.limits.MaxWait,
					WaitTimeout: s.limits.WaitTimeout,
					RetryAfter:  s.limits.RetryAfter,
				}, em)
			}
			return g
		}
		s.gdGenerate = mk("POST /v1/generate")
		s.gdJobs = mk("POST /v1/jobs")
	}

	// Readiness inputs, checked in order by /readyz: admission shedding
	// first (the historical behavior), then the SLO engine when present.
	s.health = append(s.health, slo.HealthFunc("admission", func() (bool, string) {
		for _, g := range []*guard{s.gdGenerate, s.gdJobs} {
			if g != nil && g.adm != nil && g.adm.Shedding() {
				return false, "shedding"
			}
		}
		return true, ""
	}))
	if s.slo != nil {
		s.health = append(s.health, s.slo)
		s.mux.HandleFunc("GET /debug/slo", s.debugSLO)
		s.mux.HandleFunc("GET /v1/alerts", s.streamAlerts)
		if s.slo.Recorder() != nil {
			s.mux.HandleFunc("GET /debug/flightrecorder", s.debugFlightRecorder)
		}
	}
	if s.account != nil {
		s.mux.HandleFunc("GET /debug/events", s.debugEvents)
		s.mux.HandleFunc("GET /v1/usage", s.usage)
	}
	return s
}

// Handler returns the routing handler (for httptest and embedding),
// wrapped with the metrics middleware when WithMetrics is set.
func (s *Server) Handler() http.Handler { return s.handler }

// ListenAndServe blocks serving the API on addr until Shutdown. Calling
// it after Shutdown is a no-op (a signal can win the race at startup).
func (s *Server) ListenAndServe(addr string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	srv := &http.Server{Addr: addr, Handler: s.handler}
	s.http = srv
	s.mu.Unlock()

	err := srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops the listener (finishing in-flight requests) and drains
// the job store; ctx bounds the whole drain. Readiness flips to 503 and
// the admission controllers shed everything the moment the drain starts,
// so new traffic fails fast with Retry-After instead of queuing behind a
// closing server.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.shutdownOnce.Do(func() { close(s.shutdownC) })
	for _, g := range []*guard{s.gdGenerate, s.gdJobs} {
		if g != nil && g.adm != nil {
			g.adm.SetDraining(true)
		}
	}
	s.mu.Lock()
	s.closed = true
	srv := s.http
	s.mu.Unlock()

	var httpErr error
	if srv != nil {
		httpErr = srv.Shutdown(ctx)
	}
	if err := s.store.Shutdown(ctx); err != nil {
		s.shutdownGateway(ctx)
		return err
	}
	s.shutdownGateway(ctx)
	return httpErr
}

// ---- handlers ----

// apiError is the structured error envelope every endpoint emits:
//
//	{"error": {"code": "...", "message": "...", "trace_id": "..."}}
//
// code is a stable machine-readable slug (derived from the HTTP status
// unless overridden), message is human-readable, and trace_id — present
// when the request is traced — links the failure to its span tree under
// /debug/traces and to the X-Trace-Id response header.
type apiError struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	TraceID string `json:"trace_id,omitempty"`
}

// errorCode maps an HTTP status to the envelope's default code slug.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "invalid_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusUnprocessableEntity:
		return "not_servable"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		if status >= 500 {
			return "internal"
		}
		return "invalid_request"
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError emits the structured envelope with the status's default code
// slug. r supplies the span context the trace id is read from; nil (or an
// untraced request) omits the field.
func writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	writeErrorCode(w, r, status, errorCode(status), format, args...)
}

// writeErrorCode is writeError with an explicit code slug.
func writeErrorCode(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	body := errorBody{Code: code, Message: fmt.Sprintf(format, args...)}
	if r != nil {
		if id := trace.FromContext(r.Context()).TraceID(); id.Valid() {
			body.TraceID = id.String()
		}
	}
	writeJSON(w, status, apiError{Error: body})
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	release, verdict, ok := s.gdJobs.admit(w, r)
	if !ok {
		// Sheds happen before the body is decoded, so the endpoint's
		// primary kind stands in for the unknown spec kind.
		s.accountShed(r, account.KindFinetune, "POST /v1/jobs", verdict)
		return
	}
	defer release()
	var spec jobs.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, r, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	spec.Tenant = s.tenantOf(r)
	j, err := s.store.SubmitCtx(r.Context(), spec)
	switch {
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, r, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusAccepted
	if j.CacheHit {
		code = http.StatusOK // served instantly from the result cache
	}
	writeJSON(w, code, j)
}

// listJobs serves GET /v1/jobs with ?status= filtering and ?limit=/
// ?offset= pagination. Ordering is stable (submission time); the total
// match count rides the X-Total-Count header so the body stays a plain
// job array for pagination-unaware clients.
func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	status := jobs.Status(q.Get("status"))
	switch status {
	case "", jobs.StatusQueued, jobs.StatusRunning, jobs.StatusDone, jobs.StatusFailed, jobs.StatusCancelled:
	default:
		writeError(w, r, http.StatusBadRequest, "unknown status %q", status)
		return
	}
	limitN, ok := queryInt(w, r, q.Get("limit"), "limit")
	if !ok {
		return
	}
	offset, ok := queryInt(w, r, q.Get("offset"), "offset")
	if !ok {
		return
	}
	list, total := s.store.ListPage(status, q.Get("tenant"), limitN, offset)
	w.Header().Set("X-Total-Count", strconv.Itoa(total))
	writeJSON(w, http.StatusOK, list)
}

// queryInt parses a non-negative integer query parameter ("" = 0),
// writing the 400 itself on bad input.
func queryInt(w http.ResponseWriter, r *http.Request, raw, name string) (int, bool) {
	if raw == "" {
		return 0, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		writeError(w, r, http.StatusBadRequest, "invalid %s %q: want a non-negative integer", name, raw)
		return 0, false
	}
	return n, true
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusAccepted, j)
}

func (s *Server) listExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, experiments.Describe())
}

// healthz is the liveness probe: the process is up and can answer, even
// mid-drain. Restart decisions key off this; routing decisions belong to
// /readyz.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string     `json:"status"`
		Stats  jobs.Stats `json:"stats"`
	}{Status: "ok", Stats: s.store.Stats()})
}

// readyz is the readiness probe: 503 while the server is draining for
// shutdown, while an admission controller is fully shedding (at its
// concurrency cap with a full wait queue), or while a critical SLO
// objective is firing — in every such state new traffic belongs
// elsewhere. Non-drain conditions are expressed as slo.HealthSource
// inputs, checked in registration order; the first unhealthy one names
// the status.
func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	status := "ready"
	if s.draining.Load() {
		status = "draining"
	} else {
		for _, h := range s.health {
			if ok, st := h.Healthy(); !ok {
				status = st
				break
			}
		}
	}
	code := http.StatusOK
	if status != "ready" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status string     `json:"status"`
		Stats  jobs.Stats `json:"stats"`
	}{Status: status, Stats: s.store.Stats()})
}
