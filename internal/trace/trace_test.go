package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestTracer(ratio float64) *Tracer {
	return New(Config{SampleRatio: ratio, Capacity: 256, SlowestN: 4, Seed: 42})
}

func TestSamplingRatio(t *testing.T) {
	if sp := newTestTracer(0).StartRoot("r", SpanContext{}); sp != nil {
		t.Fatal("ratio 0 sampled a trace")
	}
	if sp := newTestTracer(1).StartRoot("r", SpanContext{}); sp == nil {
		t.Fatal("ratio 1 dropped a trace")
	} else {
		sp.Finish()
	}
	// A fractional ratio should land near its target over many draws.
	tr := newTestTracer(0.25)
	hits := 0
	for i := 0; i < 4000; i++ {
		if sp := tr.StartRoot("r", SpanContext{}); sp != nil {
			hits++
			sp.Finish()
		}
	}
	if hits < 700 || hits > 1300 {
		t.Fatalf("ratio 0.25 sampled %d/4000", hits)
	}
}

func TestRemoteContextOverridesRatio(t *testing.T) {
	tr := newTestTracer(0) // local sampling off
	remote := SpanContext{TraceID: TraceID{1}, SpanID: SpanID{2}, Sampled: true, Remote: true}
	sp := tr.StartRoot("r", remote)
	if sp == nil {
		t.Fatal("sampled remote context was dropped despite flag")
	}
	if sp.TraceID() != remote.TraceID {
		t.Fatalf("trace id %s not continued from remote", sp.TraceID())
	}
	sp.Finish()

	tr2 := newTestTracer(1) // local sampling on
	remote.Sampled = false
	if sp := tr2.StartRoot("r", remote); sp != nil {
		t.Fatal("unsampled remote context was recorded")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("r", SpanContext{})
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	// Every operation on a nil span must be a no-op, not a panic.
	sp.SetInt("i", 1)
	sp.SetStr("s", "v")
	sp.SetFloat("f", 1.5)
	sp.SetBool("b", true)
	sp.ChildAt("c", time.Now(), time.Now())
	child := sp.StartChild("c")
	if child != nil {
		t.Fatal("child of nil span is not nil")
	}
	child.Finish()
	sp.Finish()
	if sp.Sampled() || sp.TraceID().Valid() || sp.SpanID().Valid() {
		t.Fatal("nil span reports identity")
	}
	if rec, slow := tr.Snapshot(10); rec != nil || slow != nil {
		t.Fatal("nil tracer snapshot non-empty")
	}
}

func TestSpanTreeAssembly(t *testing.T) {
	tr := newTestTracer(1)
	root := tr.StartRoot("http.request", SpanContext{})
	root.SetStr("route", "POST /v1/generate")
	admit := root.StartChild("limit.acquire")
	admit.SetStr("outcome", "admitted")
	admit.Finish()
	seq := root.StartChild("infer.sequence")
	for i := 0; i < 3; i++ {
		st := seq.StartChild("decode_step")
		st.SetInt("step", int64(i))
		st.Finish()
	}
	seq.SetInt("tokens", 3)
	seq.Finish()
	root.Finish()

	recent, _ := tr.Snapshot(10)
	if len(recent) != 1 {
		t.Fatalf("got %d traces, want 1", len(recent))
	}
	trace := recent[0]
	if trace.Spans != 6 {
		t.Fatalf("trace has %d spans, want 6", trace.Spans)
	}
	if len(trace.Roots) != 1 || trace.Roots[0].Name != "http.request" {
		t.Fatalf("unexpected roots %+v", trace.Roots)
	}
	r := trace.Roots[0]
	if r.Attrs["route"] != "POST /v1/generate" {
		t.Fatalf("root attrs %v", r.Attrs)
	}
	if len(r.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(r.Children))
	}
	var seqRec *SpanRecord
	for _, c := range r.Children {
		if c.Name == "infer.sequence" {
			seqRec = c
		}
	}
	if seqRec == nil || len(seqRec.Children) != 3 {
		t.Fatalf("sequence span tree wrong: %+v", seqRec)
	}
	if seqRec.Children[2].Attrs["step"] != int64(2) {
		t.Fatalf("decode step attrs %v", seqRec.Children[2].Attrs)
	}
}

func TestRingWraparound(t *testing.T) {
	tr := New(Config{SampleRatio: 1, Capacity: 8, SlowestN: 2, Seed: 7})
	for i := 0; i < 100; i++ {
		sp := tr.StartRoot("r", SpanContext{})
		sp.Finish()
	}
	recent, slow := tr.Snapshot(100)
	total := 0
	for _, trc := range recent {
		total += trc.Spans
	}
	if total != 8 {
		t.Fatalf("ring retained %d spans, want capacity 8", total)
	}
	if len(slow) != 2 {
		t.Fatalf("slowest retained %d, want 2", len(slow))
	}
}

func TestSlowestRetention(t *testing.T) {
	tr := New(Config{SampleRatio: 1, Capacity: 4, SlowestN: 2, Seed: 7})
	base := time.Now()
	root := tr.StartRoot("keep-parent", SpanContext{})
	root.ChildAt("slow-a", base, base.Add(500*time.Millisecond))
	root.ChildAt("slow-b", base, base.Add(300*time.Millisecond))
	for i := 0; i < 64; i++ {
		root.ChildAt("fast", base, base.Add(time.Microsecond))
	}
	_, slow := tr.Snapshot(10)
	if len(slow) != 2 {
		t.Fatalf("retained %d slowest, want 2", len(slow))
	}
	if slow[0].Name != "slow-a" || slow[1].Name != "slow-b" {
		t.Fatalf("slowest = %s, %s; want slow-a, slow-b", slow[0].Name, slow[1].Name)
	}
	root.Finish()
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := newTestTracer(1)
	sp := tr.StartRoot("r", SpanContext{})
	header := sp.Context().Traceparent()
	sc, ok := ParseTraceparent(header)
	if !ok {
		t.Fatalf("own traceparent %q does not parse", header)
	}
	if sc.TraceID != sp.TraceID() || sc.SpanID != sp.SpanID() || !sc.Sampled || !sc.Remote {
		t.Fatalf("round trip mangled context: %+v", sc)
	}
	sp.Finish()
}

// badTraceparents are headers ParseTraceparent must reject.
var badTraceparents = []string{
	"",
	"00",
	"zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
	"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",       // forbidden version
	"00-00000000000000000000000000000000-b7ad6b7169203331-01",       // zero trace id
	"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",       // zero span id
	"00-0af7651916cd43dd8448eb211c8031-b7ad6b7169203331-01",         // short trace id
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033-01",         // short span id
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", // version 00 with a fifth field
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01ff",     // version 00 with trailing flags bytes
}

func TestParseTraceparent(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	sc, ok := ParseTraceparent(valid)
	if !ok || !sc.Sampled || !sc.Remote {
		t.Fatalf("valid header rejected: %+v ok=%v", sc, ok)
	}
	if sc.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace id %s", sc.TraceID)
	}
	if sc, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00"); !ok || sc.Sampled {
		t.Fatal("unsampled flag not parsed")
	}
	if _, ok := ParseTraceparent("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra"); !ok {
		t.Fatal("a later version's trailing field rejected")
	}
	for _, bad := range badTraceparents {
		if _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("accepted malformed header %q", bad)
		}
	}
}

// FuzzParseTraceparent: no input panics, and any header that parses
// re-renders to one that parses back to the same identity and flag.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	f.Add("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra")
	for _, bad := range badTraceparents {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		back, ok := ParseTraceparent(sc.Traceparent())
		if !ok || back.TraceID != sc.TraceID || back.SpanID != sc.SpanID || back.Sampled != sc.Sampled {
			t.Fatalf("%q parsed to %+v, which re-renders as %q and parses to %+v (ok=%v)",
				h, sc, sc.Traceparent(), back, ok)
		}
	})
}

func TestContextPlumbing(t *testing.T) {
	tr := newTestTracer(1)
	sp := tr.StartRoot("r", SpanContext{})
	ctx := ContextWith(context.Background(), sp)
	if FromContext(ctx) != sp {
		t.Fatal("span lost in context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context yields a span")
	}
	if got := ContextWith(context.Background(), nil); FromContext(got) != nil {
		t.Fatal("nil span stored in context")
	}
	sp.Finish()
}

func TestLogHandlerInjectsTraceIDs(t *testing.T) {
	tr := newTestTracer(1)
	sp := tr.StartRoot("r", SpanContext{})
	var buf bytes.Buffer
	logger := slog.New(NewLogHandler(slog.NewJSONHandler(&buf, nil)))
	logger.InfoContext(ContextWith(context.Background(), sp), "hello", "k", "v")
	logger.InfoContext(context.Background(), "plain")

	dec := json.NewDecoder(&buf)
	var withSpan, without map[string]any
	if err := dec.Decode(&withSpan); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&without); err != nil {
		t.Fatal(err)
	}
	if withSpan["trace_id"] != sp.TraceID().String() || withSpan["span_id"] != sp.SpanID().String() {
		t.Fatalf("record missing trace identity: %v", withSpan)
	}
	if _, ok := without["trace_id"]; ok {
		t.Fatal("span-less record gained a trace_id")
	}
	sp.Finish()
}

func TestNewLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, "warn", "json")
	logger.Info("dropped")
	logger.Warn("kept")
	out := buf.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Fatalf("level filtering wrong: %q", out)
	}
	if !strings.Contains(out, `"msg":"kept"`) {
		t.Fatalf("json format not applied: %q", out)
	}
	// Unknown values fall back instead of failing.
	NewLogger(&buf, "bogus", "bogus").Info("ok")
}

func TestConcurrentFinish(t *testing.T) {
	tr := New(Config{SampleRatio: 1, Capacity: 64, SlowestN: 8, Seed: 3})
	root := tr.StartRoot("root", SpanContext{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := root.StartChild("worker")
				sp.SetInt("g", int64(g))
				sp.Finish()
			}
		}(g)
	}
	wg.Wait()
	root.Finish()
	recent, _ := tr.Snapshot(10)
	if len(recent) == 0 {
		t.Fatal("no traces after concurrent finishes")
	}
}

// spanShape is one per-request span call shape, run on a warm tracer.
type spanShape struct {
	name string
	op   func()
}

// spanShapes returns the span call shapes pinned and timed below: a
// sampled root's start/finish, a sampled child's (both pooled spans and
// the seqlock ring), and the full root+child shape on a ratio-0 tracer,
// where every span is nil and every call one branch. Each shape runs 100
// times first to warm the span pool and the slowest set.
func spanShapes() []spanShape {
	sampled := New(Config{SampleRatio: 1, Capacity: 1024, SlowestN: 8, Seed: 9})
	unsampled := New(Config{SampleRatio: 0, Capacity: 1024, Seed: 9})
	root := sampled.StartRoot("root", SpanContext{})
	shapes := []spanShape{
		{"span_start_finish", func() {
			sp := sampled.StartRoot("op", SpanContext{})
			sp.SetInt("k", 1)
			sp.Finish()
		}},
		{"child_start_finish", func() {
			sp := root.StartChild("steady")
			sp.SetInt("i", 1)
			sp.SetStr("s", "static")
			sp.Finish()
		}},
		{"span_unsampled", func() {
			sp := unsampled.StartRoot("op", SpanContext{})
			sp.SetInt("k", 1)
			child := sp.StartChild("child")
			child.SetInt("k", 2)
			child.Finish()
			sp.Finish()
		}},
	}
	for i := 0; i < 100; i++ {
		for _, s := range shapes {
			s.op()
		}
	}
	return shapes
}

func TestSpanStartFinishDoesNotAllocate(t *testing.T) {
	for _, s := range spanShapes() {
		if allocs := testing.AllocsPerRun(1000, s.op); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", s.name, allocs)
		}
	}
}

func BenchmarkTrace(b *testing.B) {
	for _, s := range spanShapes() {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.op()
			}
		})
	}
}

func TestAttrOverflowDropped(t *testing.T) {
	tr := newTestTracer(1)
	sp := tr.StartRoot("r", SpanContext{})
	for i := 0; i < MaxAttrs+4; i++ {
		sp.SetInt("k", int64(i))
	}
	sp.Finish()
	recent, _ := tr.Snapshot(1)
	if len(recent) != 1 || len(recent[0].Roots) != 1 {
		t.Fatal("span not retained")
	}
	if n := len(recent[0].Roots[0].Attrs); n != 1 { // same key collapses in the map
		t.Fatalf("attrs rendered %d keys, want 1", n)
	}
}
