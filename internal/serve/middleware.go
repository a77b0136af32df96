package serve

import (
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"longexposure/internal/limit"
	"longexposure/internal/obs"
	"longexposure/internal/trace"
)

// LimitConfig configures the server's traffic-control plane: per-tenant
// and global token-bucket rate limiting plus load-shedding admission
// control, guarding the two expensive endpoints (POST /v1/generate and
// POST /v1/jobs). Shed and rate-limited requests receive 429 with a
// Retry-After header; every decision is metered through the server's
// metrics registry when one is attached.
type LimitConfig struct {
	// Limit configures the rate tiers; a zero value disables rate
	// limiting while keeping admission control.
	Limit limit.Config
	// TenantHeader names the header identifying the tenant for the
	// per-tenant tier (default "X-API-Key"). Requests without it share
	// the "anonymous" bucket.
	TenantHeader string
	// MaxInFlight bounds concurrently admitted requests per guarded
	// endpoint; 0 disables admission control.
	MaxInFlight int
	// MaxWait bounds the admission wait queue per endpoint (default 0:
	// shed immediately at the cap).
	MaxWait int
	// WaitTimeout bounds how long a queued request waits (default 2s).
	WaitTimeout time.Duration
	// RetryAfter is the hint attached to shed responses (default 1s).
	RetryAfter time.Duration
}

// WithLimits enables the traffic-control plane.
func WithLimits(cfg LimitConfig) Option {
	return func(s *Server) {
		if cfg.TenantHeader == "" {
			cfg.TenantHeader = "X-API-Key"
		}
		s.limits = &cfg
	}
}

// guard is one endpoint's traffic control: the shared limiter plus the
// endpoint's admission controller and metric handles.
type guard struct {
	tenantHeader string
	limiter      *limit.Limiter   // nil: no rate limiting
	adm          *limit.Admission // nil: no admission control
	m            *obs.EndpointLimitMetrics
}

// admit applies rate limiting then admission control. It either returns
// a release func (call when the request finishes) or writes the 429
// itself and returns ok=false. verdict reports the admission decision
// for the request's accounting event: "admitted", or the shed reason
// (rate_limited, queue_full, timeout, draining, cancelled); "" when no
// traffic control guards the route.
func (g *guard) admit(w http.ResponseWriter, r *http.Request) (release func(), verdict string, ok bool) {
	if g == nil {
		return func() {}, "", true
	}
	if g.limiter != nil {
		tenant := r.Header.Get(g.tenantHeader)
		if tenant == "" {
			tenant = "anonymous"
		}
		if allowed, retryAfter := g.limiter.Allow(tenant); !allowed {
			g.m.ShedRateLimited.Inc()
			writeRetryAfter(w, retryAfter)
			writeError(w, r, http.StatusTooManyRequests, "rate limit exceeded for tenant %q", tenant)
			return nil, "rate_limited", false
		}
	}
	if g.adm == nil {
		return func() {}, "admitted", true
	}
	release, shed := g.adm.Acquire(r.Context())
	if shed != nil {
		writeRetryAfter(w, shed.RetryAfter)
		writeError(w, r, http.StatusTooManyRequests, "%v", shed)
		return nil, shed.Reason, false
	}
	return release, "admitted", true
}

// writeRetryAfter sets Retry-After in whole seconds, at least 1 — the
// contract load-shedding clients back off on.
func writeRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// statusRecorder captures the response status for the metrics middleware
// while passing Flush through — the SSE endpoints depend on it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController passthrough.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// skipTrace exempts the observability surface itself from tracing and
// request logging: scrapes and trace reads would otherwise dominate the
// span ring and the log with self-traffic.
func skipTrace(path string) bool {
	return path == "/metrics" || strings.HasPrefix(path, "/debug/")
}

// observe is the combined request middleware: per-route latency and
// status metering (WithMetrics), a root span honoring any inbound W3C
// traceparent header (WithTracing), trace-id exemplars on the latency
// histogram when both are attached, and one structured record per
// request (WithLogger). The route label is the matched mux pattern
// (e.g. "POST /v1/generate"), read after routing so path parameters
// never explode cardinality — the mux stamps Pattern on the same request
// value we pass down.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.httpm.InFlight.Inc()
		defer s.httpm.InFlight.Dec()
		var sp *trace.Span
		if s.tracer != nil && !skipTrace(r.URL.Path) {
			remote, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
			if sp = s.tracer.StartRoot("http.request", remote); sp != nil {
				r = r.WithContext(trace.ContextWith(r.Context(), sp))
				w.Header().Set("X-Trace-Id", sp.TraceID().String())
			}
		}
		sw := &statusRecorder{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(t0)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		lat := s.httpm.Latency.With(route)
		if sp != nil {
			lat.ObserveExemplar(dur.Seconds(), sp.TraceID().String())
		} else {
			lat.Observe(dur.Seconds())
		}
		s.httpm.Requests.With(route, statusClass(sw.status)).Inc()
		sp.SetStr("route", route)
		sp.SetInt("status", int64(sw.status))
		if s.limits != nil {
			if tenant := r.Header.Get(s.limits.TenantHeader); tenant != "" {
				sp.SetStr("tenant", tenant)
			}
		}
		sp.Finish()
		if s.log != nil && !skipTrace(r.URL.Path) {
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "http request",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Duration("duration", dur))
		}
	})
}

func statusClass(code int) string {
	switch code / 100 {
	case 1:
		return "1xx"
	case 2:
		return "2xx"
	case 3:
		return "3xx"
	case 4:
		return "4xx"
	default:
		return "5xx"
	}
}
