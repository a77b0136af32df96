package serve

import (
	"net/http"
	"strconv"

	"longexposure/internal/slo"
)

// WithSLO attaches an SLO engine (internal/slo): GET /debug/slo serves
// the live objective report with error-budget arithmetic, GET /v1/alerts
// streams burn-rate alert transitions as SSE (recent transitions
// replayed, then live), and — when the engine carries a flight
// recorder — GET /debug/flightrecorder serves the black-box snapshot
// and the on-disk dump inventory. The engine also becomes a readiness
// input: /readyz reports 503 "slo_firing" while any critical objective
// is firing. The caller owns the engine lifecycle (Start/Stop);
// serve only reads from it.
func WithSLO(eng *slo.Engine) Option {
	return func(s *Server) { s.slo = eng }
}

// debugSLO serves GET /debug/slo.
func (s *Server) debugSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Report())
}

// flightRecorderResponse is the GET /debug/flightrecorder body: the live
// black-box snapshot (same payload a dump file carries) plus the dumps
// already on disk.
type flightRecorderResponse struct {
	Snapshot slo.Dump       `json:"snapshot"`
	Dumps    []slo.DumpFile `json:"dumps"`
}

// debugFlightRecorder serves GET /debug/flightrecorder (mounted only
// when the engine has a recorder attached).
func (s *Server) debugFlightRecorder(w http.ResponseWriter, _ *http.Request) {
	rec := s.slo.Recorder()
	writeJSON(w, http.StatusOK, flightRecorderResponse{
		Snapshot: rec.Snapshot("debug-endpoint"),
		Dumps:    rec.List(),
	})
}

// streamAlerts serves GET /v1/alerts: recent alert transitions replayed,
// then live ones, as SSE frames named after the new alert state with the
// transition's sequence number as id. The stream ends when the client
// disconnects, the engine stops, or the server begins draining (streams
// must not pin a closing listener).
func (s *Server) streamAlerts(w http.ResponseWriter, r *http.Request) {
	ch, cancel := s.slo.SubscribeAlerts()
	defer cancel()
	streamSSE(s, w, r, ch, s.shutdownC, func(e slo.AlertEvent) (string, string, any, bool) {
		return e.State, strconv.FormatInt(e.Seq, 10), e, false
	})
}
