package trace

import (
	"context"
	"encoding/hex"
	"strings"
)

// SpanContext is the propagated identity of a span: what crosses process
// boundaries in a W3C traceparent header, and what child spans inherit.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
	// Remote marks a context parsed off the wire: StartRoot honors its
	// sampled flag verbatim instead of applying the local sample ratio.
	Remote bool
}

// Traceparent renders the W3C trace-context header value
// (version 00): "00-<trace-id>-<span-id>-<flags>".
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value. It accepts any
// non-ff version (per spec, unknown versions parse as version 00) and
// rejects malformed ids, all-zero ids, and wrong field sizes. A version-00
// header is exactly its four fields; only a later version may append
// further "-"-separated fields after the flags.
func ParseTraceparent(h string) (SpanContext, bool) {
	h = strings.TrimSpace(h)
	parts := strings.Split(h, "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return SpanContext{}, false
	}
	var version [1]byte
	if _, err := hex.Decode(version[:], []byte(strings.ToLower(parts[0]))); err != nil {
		return SpanContext{}, false
	}
	if version[0] == 0xff || (version[0] == 0 && len(parts) != 4) {
		return SpanContext{}, false // forbidden version, or trailing data on 00
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.TraceID[:], []byte(strings.ToLower(parts[1]))); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(strings.ToLower(parts[2]))); err != nil {
		return SpanContext{}, false
	}
	if !sc.TraceID.Valid() || !sc.SpanID.Valid() {
		return SpanContext{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(strings.ToLower(parts[3]))); err != nil {
		return SpanContext{}, false
	}
	sc.Sampled = flags[0]&0x01 != 0
	sc.Remote = true
	return sc, true
}

type ctxKey struct{}

// ContextWith returns ctx carrying the span. Storing a nil span is fine —
// FromContext returns nil either way, so unsampled requests flow through
// the same plumbing.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
