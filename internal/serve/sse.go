package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"longexposure/internal/jobs"
)

// streamSSE is the server's one server-sent-event response loop. It
// commits the stream headers, then turns every value received on ch into
// one frame
//
//	event: <event>
//	id: <id>            (omitted when id is "")
//	data: <data JSON>
//
// until ch closes, frame marks a value as the last, the client goes away,
// stop fires (nil never does), or a write fails. While the stream is idle
// it emits ": keepalive" comment frames every WithSSEKeepalive interval —
// invisible to EventSource consumers, but they keep quiet connections
// alive through proxies that reap them.
func streamSSE[T any](s *Server, w http.ResponseWriter, r *http.Request, ch <-chan T, stop <-chan struct{},
	frame func(T) (event, id string, data any, last bool)) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	var keepalive <-chan time.Time // nil (never fires) when disabled
	if s.keepalive > 0 {
		t := time.NewTicker(s.keepalive)
		defer t.Stop()
		keepalive = t.C
	}
	gone := r.Context().Done()
	for {
		select {
		case <-gone:
			return
		case <-stop:
			return
		case <-keepalive:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case v, open := <-ch:
			if !open {
				return
			}
			event, id, data, last := frame(v)
			err := writeSSE(w, event, id, data)
			flusher.Flush()
			if err != nil || last {
				return
			}
		}
	}
}

// writeSSE writes one frame (see streamSSE).
func writeSSE(w io.Writer, event, id string, data any) error {
	b, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if id != "" {
		id = "id: " + id + "\n"
	}
	_, err = fmt.Fprintf(w, "event: %s\n%sdata: %s\n\n", event, id, b)
	return err
}

// streamEvents serves GET /v1/jobs/{id}/events: the job's full history is
// replayed, then live events follow until the terminal event
// (done/failed/cancelled) ends the stream. The frame's event name is the
// event kind and its id the per-job sequence number. Clients that
// reconnect simply replay from the start — event logs are small (one
// frame per training step) and replay keeps the protocol stateless.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := s.store.Subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	defer cancel()
	streamSSE(s, w, r, ch, nil, func(e jobs.Event) (string, string, any, bool) {
		return string(e.Kind), strconv.Itoa(e.Seq), e, false
	})
}
