package slo

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"longexposure/internal/durable"
	"longexposure/internal/events"
	"longexposure/internal/trace"
)

// RecorderConfig sizes a flight recorder. Zero values take the noted
// defaults.
type RecorderConfig struct {
	// Dir is where dumps land. Empty disables on-disk dumps (the live
	// ring and /debug/flightrecorder still work).
	Dir string
	// LogRing bounds retained slog records (default 256).
	LogRing int
	// TickRing bounds retained per-tick metric deltas (default 120 —
	// 20 minutes at the default 10s tick).
	TickRing int
	// AlertRing bounds retained alert transitions (default 64).
	AlertRing int
	// SpanLimit bounds recent traces included per dump (default 10).
	SpanLimit int
	// MaxDumps bounds dump files retained in Dir; the oldest are pruned
	// (default 16).
	MaxDumps int
}

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.LogRing <= 0 {
		c.LogRing = 256
	}
	if c.TickRing <= 0 {
		c.TickRing = 120
	}
	if c.AlertRing <= 0 {
		c.AlertRing = 64
	}
	if c.SpanLimit <= 0 {
		c.SpanLimit = 10
	}
	if c.MaxDumps <= 0 {
		c.MaxDumps = 16
	}
	return c
}

// LogRecord is one captured slog record, as retained in the ring and
// rendered into dumps.
type LogRecord struct {
	Time    time.Time         `json:"time"`
	Level   string            `json:"level"`
	Message string            `json:"msg"`
	TraceID string            `json:"trace_id,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// ObjectiveTick is one objective's reading at one evaluation tick: the
// cumulative counts, their delta since the previous tick, and the
// derived judgement — the "metric snapshot delta" axis of a dump.
type ObjectiveTick struct {
	Objective string     `json:"objective"`
	State     string     `json:"state"`
	Good      float64    `json:"good"`
	Total     float64    `json:"total"`
	DGood     float64    `json:"d_good"`
	DTotal    float64    `json:"d_total"`
	Burn      [4]float64 `json:"burn"` // fast_short, fast_long, slow_short, slow_long
	Budget    float64    `json:"budget_remaining"`
}

// TickDelta is one whole evaluation tick in the ring.
type TickDelta struct {
	Time       time.Time       `json:"time"`
	Objectives []ObjectiveTick `json:"objectives"`
}

// Dump is the flight-recorder payload: everything the black box knows,
// correlated — alert transitions, recent log records (with trace ids),
// span trees from the trace ring, and per-tick metric deltas.
type Dump struct {
	Time         time.Time           `json:"time"`
	Reason       string              `json:"reason"`
	Alerts       []AlertEvent        `json:"alerts,omitempty"`
	Logs         []LogRecord         `json:"logs,omitempty"`
	RecentTraces []trace.TraceRecord `json:"recent_traces,omitempty"`
	SlowestSpans []*trace.SpanRecord `json:"slowest_spans,omitempty"`
	MetricDeltas []TickDelta         `json:"metric_deltas,omitempty"`
	SLO          *Report             `json:"slo,omitempty"`
	// WideEvents carries the accounting plane's most recent per-request
	// resource records, captured at snapshot time via SetEventSource. The
	// concrete type is whatever the source returns (the account plane
	// hands back its event slice) — slo stays decoupled from accounting.
	WideEvents any `json:"wide_events,omitempty"`
}

// DumpFile describes one dump on disk.
type DumpFile struct {
	Name    string    `json:"name"`
	Size    int64     `json:"size"`
	ModTime time.Time `json:"mod_time"`
}

// tickSlot is one evaluation tick as retained in the ring.
type tickSlot struct {
	t    int64 // UnixNano
	objs []ObjectiveTick
}

// Recorder is the black-box flight recorder: fixed-size rings of log
// records, alert transitions and per-tick metric deltas (events.Ring),
// dumped atomically (durable.WriteFile) to disk on alert-firing, SIGQUIT
// or panic. Construct with NewRecorder; attach to an Engine via Deps.
type Recorder struct {
	cfg    RecorderConfig
	tracer *trace.Tracer // nil: dumps carry no spans

	mu     sync.Mutex
	engine *Engine // attached by Engine.New; nil until then

	logs   events.Ring[LogRecord]
	alerts events.Ring[AlertEvent]
	// Per-tick delta ring. A slot's objective slice is allocated the first
	// time the slot is claimed and refilled in place afterwards, so
	// recording a tick never allocates at steady state.
	ticks events.Ring[tickSlot]
	nObjs int

	// events, when set, supplies the wide-event window included in every
	// snapshot (see Dump.WideEvents).
	events func() any

	dumpSeq int
}

// NewRecorder builds a flight recorder. tracer may be nil.
func NewRecorder(cfg RecorderConfig, tracer *trace.Tracer) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:    cfg,
		tracer: tracer,
		logs:   events.NewRing[LogRecord](cfg.LogRing),
		alerts: events.NewRing[AlertEvent](cfg.AlertRing),
		ticks:  events.NewRing[tickSlot](cfg.TickRing),
	}
}

// Dir returns the dump directory ("" when on-disk dumps are disabled).
func (r *Recorder) Dir() string { return r.cfg.Dir }

// SetEventSource attaches a wide-event source consulted at every
// snapshot — typically func() any { return plane.Recent(n) } over the
// accounting plane, so dumps carry the last requests' resource records
// alongside the spans, logs and metric deltas they join by trace id.
func (r *Recorder) SetEventSource(fn func() any) {
	r.mu.Lock()
	r.events = fn
	r.mu.Unlock()
}

// attach is called by Engine.New.
func (r *Recorder) attach(e *Engine, nObjs int) {
	r.mu.Lock()
	r.engine = e
	r.nObjs = nObjs
	r.mu.Unlock()
}

// beginTick claims the next tick slot, sized for the attached engine's
// objectives, and returns it with the previous tick's readings (nil on
// the first tick) for delta computation. The caller (Engine.Tick, holding
// its own lock) fills the slot in place. Allocation-free once every ring
// slot has been claimed once.
func (r *Recorder) beginTick(now time.Time) (slot, prev []ObjectiveTick) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.ticks.Len(); n > 0 {
		prev = r.ticks.At(n - 1).objs
	}
	s := r.ticks.Next()
	s.t = now.UnixNano()
	if cap(s.objs) < r.nObjs {
		s.objs = make([]ObjectiveTick, r.nObjs)
	}
	s.objs = s.objs[:r.nObjs]
	return s.objs, prev
}

// noteAlert retains one alert transition.
func (r *Recorder) noteAlert(e AlertEvent) {
	r.mu.Lock()
	r.alerts.Put(e)
	r.mu.Unlock()
}

// noteLog retains one log record.
func (r *Recorder) noteLog(rec LogRecord) {
	r.mu.Lock()
	r.logs.Put(rec)
	r.mu.Unlock()
}

// Snapshot assembles the live black-box state (the /debug/flightrecorder
// payload and the body of every dump).
func (r *Recorder) Snapshot(reason string) Dump {
	var report *Report
	r.mu.Lock()
	engine := r.engine
	r.mu.Unlock()
	if engine != nil {
		report = engine.Report()
	}
	return r.snapshot(reason, report)
}

func (r *Recorder) snapshot(reason string, report *Report) Dump {
	d := Dump{Time: time.Now(), Reason: reason, SLO: report}

	r.mu.Lock()
	d.Logs = r.logs.Slice()
	d.Alerts = r.alerts.Slice()
	d.MetricDeltas = make([]TickDelta, r.ticks.Len())
	for i := range d.MetricDeltas {
		slot := r.ticks.At(i)
		d.MetricDeltas[i] = TickDelta{Time: time.Unix(0, slot.t), Objectives: append([]ObjectiveTick(nil), slot.objs...)}
	}
	events := r.events
	r.mu.Unlock()

	if events != nil {
		d.WideEvents = events()
	}
	if r.tracer != nil {
		d.RecentTraces, d.SlowestSpans = r.tracer.Snapshot(r.cfg.SpanLimit)
	}
	return d
}

// Dump assembles and writes one dump, returning its path. With no
// configured directory it returns "" and no error (the snapshot is
// still useful via /debug/flightrecorder). Dumps go through
// durable.WriteFile, so a reader never sees a torn file even if the
// process dies mid-dump.
func (r *Recorder) Dump(reason string) (string, error) {
	return r.writeDump(r.Snapshot(reason))
}

// dump is Dump with the report already in hand — the engine calls it
// from inside Tick, where calling back into Engine.Report would
// deadlock.
func (r *Recorder) dump(reason string, report *Report) (string, error) {
	return r.writeDump(r.snapshot(reason, report))
}

func (r *Recorder) writeDump(d Dump) (string, error) {
	if r.cfg.Dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return "", fmt.Errorf("slo: flight recorder: %w", err)
	}
	r.mu.Lock()
	r.dumpSeq++
	seq := r.dumpSeq
	r.mu.Unlock()

	name := fmt.Sprintf("flight-%s-%04d-%s.json",
		d.Time.UTC().Format("20060102T150405"), seq, sanitizeReason(d.Reason))
	path := filepath.Join(r.cfg.Dir, name)
	b, err := json.MarshalIndent(d, "", "  ")
	if err == nil {
		err = durable.WriteFile(path, func(w io.Writer) error { _, werr := w.Write(b); return werr })
	}
	if err != nil {
		return "", fmt.Errorf("slo: flight recorder: %w", err)
	}
	r.prune()
	return path, nil
}

// List returns the on-disk dumps, newest first.
func (r *Recorder) List() []DumpFile {
	if r.cfg.Dir == "" {
		return nil
	}
	names, err := filepath.Glob(filepath.Join(r.cfg.Dir, "flight-*.json"))
	if err != nil {
		return nil
	}
	out := make([]DumpFile, 0, len(names))
	for _, n := range names {
		fi, err := os.Stat(n)
		if err != nil {
			continue
		}
		out = append(out, DumpFile{Name: filepath.Base(n), Size: fi.Size(), ModTime: fi.ModTime()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name > out[j].Name })
	return out
}

// prune removes the oldest dumps beyond MaxDumps. Filenames sort
// chronologically by construction.
func (r *Recorder) prune() {
	names, err := filepath.Glob(filepath.Join(r.cfg.Dir, "flight-*.json"))
	if err != nil || len(names) <= r.cfg.MaxDumps {
		return
	}
	sort.Strings(names)
	for _, n := range names[:len(names)-r.cfg.MaxDumps] {
		os.Remove(n)
	}
}

// HandlePanic is a deferred panic hook: it dumps the black box with the
// panic value as the reason, then re-panics so the process still dies
// with its stack trace. Usage: defer rec.HandlePanic().
func (r *Recorder) HandlePanic() {
	if p := recover(); p != nil {
		r.Dump(fmt.Sprintf("panic-%v", p))
		panic(p)
	}
}

func sanitizeReason(reason string) string {
	var b strings.Builder
	for _, c := range reason {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	s := b.String()
	if len(s) > 48 {
		s = s[:48]
	}
	if s == "" {
		s = "manual"
	}
	return s
}

// ---- log capture ----

// logCaptureHandler tees slog records into the recorder's ring before
// delegating to the wrapped handler. Wrap the OUTERMOST handler (e.g.
// the trace-aware one), so the recorder captures everything the
// application logs; trace ids are extracted from the context directly.
type logCaptureHandler struct {
	rec   *Recorder
	inner slog.Handler
	attrs []slog.Attr // accumulated WithAttrs context
}

// LogHandler wraps inner so every record the logger emits is also
// retained in the recorder's bounded ring.
func (r *Recorder) LogHandler(inner slog.Handler) slog.Handler {
	return &logCaptureHandler{rec: r, inner: inner}
}

func (h *logCaptureHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h *logCaptureHandler) Handle(ctx context.Context, rec slog.Record) error {
	lr := LogRecord{Time: rec.Time, Level: rec.Level.String(), Message: rec.Message}
	if s := trace.FromContext(ctx); s != nil {
		lr.TraceID = s.TraceID().String()
	}
	n := rec.NumAttrs() + len(h.attrs)
	if n > 0 {
		lr.Attrs = make(map[string]string, n)
		for _, a := range h.attrs {
			lr.Attrs[a.Key] = a.Value.String()
		}
		rec.Attrs(func(a slog.Attr) bool {
			lr.Attrs[a.Key] = a.Value.String()
			if lr.TraceID == "" && a.Key == "trace_id" {
				lr.TraceID = a.Value.String()
			}
			return true
		})
	}
	h.rec.noteLog(lr)
	return h.inner.Handle(ctx, rec)
}

func (h *logCaptureHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	merged := append(append([]slog.Attr(nil), h.attrs...), attrs...)
	return &logCaptureHandler{rec: h.rec, inner: h.inner.WithAttrs(attrs), attrs: merged}
}

func (h *logCaptureHandler) WithGroup(name string) slog.Handler {
	// Groups pass through to the inner handler; ring capture stays flat.
	return &logCaptureHandler{rec: h.rec, inner: h.inner.WithGroup(name), attrs: h.attrs}
}
