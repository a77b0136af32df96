package serve

import (
	"compress/gzip"
	"net/http"
	"strconv"
	"strings"
	"time"

	"longexposure/internal/account"
	"longexposure/internal/trace"
)

// WithAccounting attaches the wide-event accounting plane: every
// completed generate request and terminal job (plus every request shed
// at admission) lands in the plane as one structured event, queryable at
// GET /debug/events with filters and ?agg= rollups, and as per-tenant
// cumulative rollups at GET /v1/usage. Pair it with jobs.Config.Account
// on the same plane so job events and request events share one ledger.
func WithAccounting(p *account.Plane) Option {
	return func(s *Server) { s.account = p }
}

// tenantOf resolves the request's tenant from the traffic-control
// plane's tenant header (default "X-API-Key"); requests without one are
// "anonymous" — the same identity the rate limiter buckets them under.
func (s *Server) tenantOf(r *http.Request) string {
	h := "X-API-Key"
	if s.limits != nil && s.limits.TenantHeader != "" {
		h = s.limits.TenantHeader
	}
	if t := r.Header.Get(h); t != "" {
		return t
	}
	return "anonymous"
}

// accountShed records a request refused at admission: sheds never reach
// an engine, so the gateway emits their (resource-less) event here.
func (s *Server) accountShed(r *http.Request, kind, route, verdict string) {
	ev := account.Event{Kind: kind, Tenant: s.tenantOf(r), Route: route, Outcome: "shed", Limit: verdict}
	if id := trace.FromContext(r.Context()).TraceID(); id.Valid() {
		ev.TraceID = id.String()
	}
	s.account.Emit(&ev)
}

// acceptsGzip reports whether the client advertised gzip support.
func acceptsGzip(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
}

// gzipResponseWriter routes the body through a gzip.Writer while headers
// and status pass straight to the underlying writer.
type gzipResponseWriter struct {
	http.ResponseWriter
	gz *gzip.Writer
}

func (w *gzipResponseWriter) Write(b []byte) (int, error) { return w.gz.Write(b) }

// maybeGzip negotiates gzip content-encoding for a buffered JSON
// response. The returned done func must be called after the body is
// written (it flushes the compressor); it is a no-op on the identity
// path.
func maybeGzip(w http.ResponseWriter, r *http.Request) (http.ResponseWriter, func()) {
	if !acceptsGzip(r) {
		return w, func() {}
	}
	w.Header().Set("Content-Encoding", "gzip")
	gz := gzip.NewWriter(w)
	return &gzipResponseWriter{ResponseWriter: w, gz: gz}, func() { gz.Close() }
}

// debugEvents serves GET /debug/events: the wide-event ring filtered by
// ?tenant= ?route= ?adapter= ?trace_id= ?outcome= ?kind= ?since= ?until=
// (RFC 3339) and ?limit=, either raw (oldest first) or rolled up by
// ?agg=sum or ?agg=pNN (nearest-rank percentiles, e.g. p50, p99).
func (s *Server) debugEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := account.Filter{
		Tenant:  q.Get("tenant"),
		Route:   q.Get("route"),
		Adapter: q.Get("adapter"),
		TraceID: q.Get("trace_id"),
		Outcome: q.Get("outcome"),
		Kind:    q.Get("kind"),
	}
	limitN, ok := queryInt(w, r, q.Get("limit"), "limit")
	if !ok {
		return
	}
	f.Limit = limitN
	var err error
	if f.Since, err = queryTime(q.Get("since")); err != nil {
		writeError(w, r, http.StatusBadRequest, "invalid since %q: want RFC 3339", q.Get("since"))
		return
	}
	if f.Until, err = queryTime(q.Get("until")); err != nil {
		writeError(w, r, http.StatusBadRequest, "invalid until %q: want RFC 3339", q.Get("until"))
		return
	}

	events := s.account.Events(f)
	var body any
	switch agg := q.Get("agg"); {
	case agg == "":
		body = struct {
			Count  int             `json:"count"`
			Events []account.Event `json:"events"`
		}{len(events), events}
	case agg == "sum":
		body = struct {
			Count int               `json:"count"`
			Sum   account.Aggregate `json:"sum"`
		}{len(events), account.Sum(events)}
	case len(agg) > 1 && agg[0] == 'p':
		pct, perr := strconv.ParseFloat(agg[1:], 64)
		if perr != nil || pct <= 0 || pct > 100 {
			writeError(w, r, http.StatusBadRequest, "invalid agg %q: want sum or pNN with 0 < NN <= 100", agg)
			return
		}
		body = struct {
			Count      int               `json:"count"`
			Percentile account.Quantiles `json:"percentile"`
		}{len(events), account.Percentile(events, pct/100)}
	default:
		writeError(w, r, http.StatusBadRequest, "invalid agg %q: want sum or pNN", q.Get("agg"))
		return
	}
	gw, done := maybeGzip(w, r)
	writeJSON(gw, http.StatusOK, body)
	done()
}

// queryTime parses an optional RFC 3339 query parameter.
func queryTime(raw string) (time.Time, error) {
	if raw == "" {
		return time.Time{}, nil
	}
	return time.Parse(time.RFC3339, raw)
}

// usage serves GET /v1/usage: cumulative per-tenant rollups plus the
// global total (which, by the plane's conservation invariant, always
// equals both the tenant sum and the lexp_account_* counters). ?tenant=
// narrows the map to one tenant (present with zero usage when unknown).
func (s *Server) usage(w http.ResponseWriter, r *http.Request) {
	tenants, total := s.account.UsageByTenant()
	if t := r.URL.Query().Get("tenant"); t != "" {
		tenants = map[string]account.Usage{t: tenants[t]}
	}
	writeJSON(w, http.StatusOK, struct {
		Tenants map[string]account.Usage `json:"tenants"`
		Total   account.Usage            `json:"total"`
	}{tenants, total})
}
