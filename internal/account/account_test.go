package account

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"longexposure/internal/obs"
)

func sampleEvent(i int) Event {
	return Event{
		Time:           time.Unix(1700000000+int64(i), 123456789),
		Kind:           KindGenerate,
		Tenant:         fmt.Sprintf("tenant-%d", i%3),
		Route:          "POST /v1/generate",
		Adapter:        "ad-abc",
		Base:           "sim-small",
		TraceID:        fmt.Sprintf("%032x", i+1),
		Outcome:        "stop",
		Limit:          "admitted",
		PromptTokens:   int64(4 + i),
		OutputTokens:   int64(8 + i),
		DecodeSteps:    int64(9 + i),
		PlannedSteps:   int64(8 + i),
		TrainSteps:     0,
		DenseFLOPs:     int64(1000 * (i + 1)),
		ExecFLOPs:      int64(700 * (i + 1)),
		MLPSavedFLOPs:  int64(200 * (i + 1)),
		AttnSavedFLOPs: int64(100 * (i + 1)),
		PeakKVRows:     int64(12 + i),
		PeakKVBytes:    int64(4096 * (i + 1)),
		ArenaBytes:     int64(1 << 16),
		QueueWaitNs:    int64(1000 * i),
		PrefillNs:      int64(5000 * (i + 1)),
		DecodeNs:       int64(9000 * (i + 1)),
		TotalNs:        int64(20000 * (i + 1)),
	}
}

func TestCodecRoundtrip(t *testing.T) {
	in := sampleEvent(7)
	frame := encodeFrame(nil, &in)
	var out Event
	if err := decodeRecord(frame[9:], &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !out.Time.Equal(in.Time) {
		t.Fatalf("time: got %v want %v", out.Time, in.Time)
	}
	out.Time = in.Time
	if out != in {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

// FuzzDecodeRecord: no payload panics the record decoder, and any payload
// that decodes re-encodes to a record that decodes to the same Event.
func FuzzDecodeRecord(f *testing.F) {
	for i := range 3 {
		in := sampleEvent(i)
		frame := encodeFrame(nil, &in)
		f.Add(frame[9:])
		f.Add(frame[9 : len(frame)/2])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var first Event
		if decodeRecord(payload, &first) != nil {
			return
		}
		var second Event
		if err := decodeRecord(encodeFrame(nil, &first)[9:], &second); err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", first, err)
		}
		if second != first {
			t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", second, first)
		}
	})
}

func TestDecodeTruncatedPayload(t *testing.T) {
	in := sampleEvent(1)
	frame := encodeFrame(nil, &in)
	var out Event
	for cut := 0; cut < len(frame)-9; cut += 7 {
		if err := decodeRecord(frame[9:9+cut], &out); err == nil {
			t.Fatalf("truncated payload of %d bytes decoded without error", cut)
		}
	}
}

func TestPlaneRingFilterAndUsage(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := New(Config{Ring: 8, Metrics: obs.NewAccountMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		ev := sampleEvent(i)
		p.Emit(&ev)
	}

	// Ring bounded at 8: the 4 oldest rolled off.
	all := p.Events(Filter{})
	if len(all) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(all))
	}
	if all[0].PromptTokens != 4+4 {
		t.Fatalf("oldest retained event is %+v, want the 5th emitted", all[0])
	}

	// Filters compose.
	byTenant := p.Events(Filter{Tenant: "tenant-1"})
	for _, e := range byTenant {
		if e.Tenant != "tenant-1" {
			t.Fatalf("tenant filter leaked %+v", e)
		}
	}
	if got := p.Events(Filter{TraceID: fmt.Sprintf("%032x", 11+1)}); len(got) != 1 {
		t.Fatalf("trace_id filter returned %d events, want 1", len(got))
	}
	if got := p.Events(Filter{Outcome: "shed"}); len(got) != 0 {
		t.Fatalf("outcome filter returned %d events, want 0", len(got))
	}
	if got := p.Events(Filter{Limit: 3}); len(got) != 3 {
		t.Fatalf("limit returned %d events, want 3", len(got))
	}

	// Usage rollups cover ALL 12 emissions (rollups are cumulative, not
	// ring-bounded) and the tenant sum equals the global total — the
	// conservation invariant.
	tenants, total := p.UsageByTenant()
	var sum Usage
	for _, u := range tenants {
		sum.Requests += u.Requests
		sum.PromptTokens += u.PromptTokens
		sum.OutputTokens += u.OutputTokens
		sum.DenseFLOPs += u.DenseFLOPs
		sum.ExecFLOPs += u.ExecFLOPs
		sum.SavedFLOPs += u.SavedFLOPs
	}
	if sum != total {
		t.Fatalf("tenant sum %+v != total %+v", sum, total)
	}
	if total.Requests != 12 {
		t.Fatalf("total.Requests = %d, want 12", total.Requests)
	}

	// And the metric counters agree with the rollups exactly.
	for _, c := range []struct {
		metric string
		want   float64
	}{
		{"lexp_account_prompt_tokens_total", float64(total.PromptTokens)},
		{"lexp_account_output_tokens_total", float64(total.OutputTokens)},
		{"lexp_account_flops_dense_total", float64(total.DenseFLOPs)},
		{"lexp_account_flops_executed_total", float64(total.ExecFLOPs)},
	} {
		got, ok := reg.Value(c.metric)
		if !ok || got != c.want {
			t.Fatalf("%s = %v (ok=%v), want %v", c.metric, got, ok, c.want)
		}
	}
	saved, _, ok := reg.SumValues("lexp_flops_saved_total")
	if !ok || saved != float64(total.SavedFLOPs) {
		t.Fatalf("lexp_flops_saved_total = %v (ok=%v), want %v", saved, ok, total.SavedFLOPs)
	}
	if got, _ := reg.Value("lexp_account_events_total", KindGenerate); got != 12 {
		t.Fatalf("lexp_account_events_total{generate} = %v, want 12", got)
	}
}

func TestAggregates(t *testing.T) {
	events := make([]Event, 10)
	for i := range events {
		events[i] = sampleEvent(i)
	}
	sum := Sum(events)
	if sum.Events != 10 || sum.PromptTokens != 4*10+45 {
		t.Fatalf("sum = %+v", sum)
	}
	if sum.PeakKVBytes != 4096*10 {
		t.Fatalf("PeakKVBytes max = %d, want %d", sum.PeakKVBytes, 4096*10)
	}
	p50 := Percentile(events, 0.5)
	if p50.TotalNs != 20000*5 {
		t.Fatalf("p50 TotalNs = %d, want %d", p50.TotalNs, 20000*5)
	}
	p100 := Percentile(events, 1)
	if p100.TotalNs != 20000*10 {
		t.Fatalf("p100 TotalNs = %d, want %d", p100.TotalNs, 20000*10)
	}
	if q := Percentile(nil, 0.9); q.Events != 0 {
		t.Fatalf("empty percentile = %+v", q)
	}
}

type emitCase struct {
	name string
	cfg  Config
}

// emitCases are the planes Emit is pinned and timed on: in memory with
// live metrics (ring slot copy, tenant rollup, metric folds), and on disk
// (plus the segment append through the reused encode buffer) with a
// segment bound no run reaches, so no rotation lands in a measurement.
func emitCases(tb testing.TB) []emitCase {
	return []emitCase{
		{"emit", Config{Ring: 1024, Metrics: obs.NewAccountMetrics(obs.NewRegistry())}},
		{"emit_disk", Config{Dir: tb.TempDir(), Ring: 1024, SegmentBytes: 1 << 30}},
	}
}

// warmPlane opens a plane and emits ev once, so the tenant's usage entry
// and the encode buffer exist before anything is measured.
func warmPlane(tb testing.TB, cfg Config, ev *Event) *Plane {
	tb.Helper()
	p, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	p.Emit(ev)
	return p
}

func TestEmitZeroAllocs(t *testing.T) {
	for _, tc := range emitCases(t) {
		ev := sampleEvent(0)
		p := warmPlane(t, tc.cfg, &ev)
		if allocs := testing.AllocsPerRun(200, func() { p.Emit(&ev) }); allocs != 0 {
			t.Errorf("%s: Emit allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkAccount(b *testing.B) {
	for _, tc := range emitCases(b) {
		b.Run(tc.name, func(b *testing.B) {
			ev := sampleEvent(0)
			p := warmPlane(b, tc.cfg, &ev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Emit(&ev)
			}
		})
	}
}

func TestSegmentRotationReplayAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few events.
	p, err := New(Config{Dir: dir, Ring: 256, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		ev := sampleEvent(i)
		p.Emit(&ev)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "events-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected multiple sealed segments, got %v", segs)
	}

	// Reopen: every event replays, usage rollups are rebuilt.
	p2, err := New(Config{Dir: dir, Ring: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	_, total := p2.UsageByTenant()
	if total.Requests != n {
		t.Fatalf("replayed %d events, want %d", total.Requests, n)
	}
	if got := p2.Events(Filter{}); len(got) != n || got[0].PromptTokens != 4 {
		t.Fatalf("replayed ring has %d events (first %+v)", len(got), got[0])
	}

	// Size-based pruning: cap total bytes below what is on disk and force
	// a rotation; the oldest sealed segments must be deleted.
	p3, err := New(Config{Dir: dir, Ring: 256, SegmentBytes: 512, MaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ev := sampleEvent(i)
		p3.Emit(&ev)
	}
	p3.Close()
	after, _ := filepath.Glob(filepath.Join(dir, "events-*.seg"))
	var totalBytes int64
	for _, s := range after {
		fi, _ := os.Stat(s)
		totalBytes += fi.Size()
	}
	if len(after) >= len(segs)+5 || totalBytes > 4096 {
		t.Fatalf("pruning ineffective: %d sealed segments, %d bytes", len(after), totalBytes)
	}
}

func TestTornTailTruncatedOnReplay(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{Dir: dir, Ring: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ev := sampleEvent(i)
		p.Emit(&ev)
	}
	p.Close()

	// Simulate a crash mid-write: append a valid frame prefix with a
	// truncated payload to the active segment.
	opens, _ := filepath.Glob(filepath.Join(dir, "events-*.open"))
	if len(opens) != 1 {
		t.Fatalf("want one active segment, got %v", opens)
	}
	full := encodeFrame(nil, &Event{Kind: KindGenerate, Tenant: "torn", Time: time.Unix(1, 0)})
	torn := full[:len(full)-11]
	f, err := os.OpenFile(opens[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopen: the torn record is dropped, the 5 good ones replay, and
	// appending resumes cleanly at the truncation point.
	p2, err := New(Config{Dir: dir, Ring: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Events(Filter{}); len(got) != 5 {
		t.Fatalf("replayed %d events after torn tail, want 5", len(got))
	}
	ev := sampleEvent(9)
	p2.Emit(&ev)
	p2.Close()

	p3, err := New(Config{Dir: dir, Ring: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	got := p3.Events(Filter{})
	if len(got) != 6 {
		t.Fatalf("after resume, replayed %d events, want 6", len(got))
	}
	if got[5].PromptTokens != 4+9 {
		t.Fatalf("resumed append replayed wrong: %+v", got[5])
	}
}

func TestCorruptCRCStopsReplay(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{Dir: dir, Ring: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ev := sampleEvent(i)
		p.Emit(&ev)
	}
	p.Close()

	opens, _ := filepath.Glob(filepath.Join(dir, "events-*.open"))
	data, err := os.ReadFile(opens[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the LAST record: its CRC fails, earlier
	// records must still replay. Find it by walking the frames.
	off := len(segMagic)
	last := off
	for off < len(data) {
		if data[off] != recMagic {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off+1:]))
		last = off
		off += 9 + n
	}
	data[last+9+4] ^= 0xFF
	if err := os.WriteFile(opens[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	p2, err := New(Config{Dir: dir, Ring: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Events(Filter{}); len(got) != 2 {
		t.Fatalf("replayed %d events past a corrupt CRC, want 2", len(got))
	}
}

func TestConcurrentEmitConservation(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := New(Config{Ring: 64, Metrics: obs.NewAccountMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ev := sampleEvent(i)
				ev.Tenant = fmt.Sprintf("tenant-%d", w%4)
				p.Emit(&ev)
			}
		}(w)
	}
	wg.Wait()
	tenants, total := p.UsageByTenant()
	if total.Requests != workers*per {
		t.Fatalf("total.Requests = %d, want %d", total.Requests, workers*per)
	}
	var sum Usage
	for _, u := range tenants {
		sum.Requests += u.Requests
		sum.PromptTokens += u.PromptTokens
		sum.ExecFLOPs += u.ExecFLOPs
	}
	if sum.Requests != total.Requests || sum.PromptTokens != total.PromptTokens || sum.ExecFLOPs != total.ExecFLOPs {
		t.Fatalf("tenant sum %+v != total %+v under concurrency", sum, total)
	}
	if got, _ := reg.Value("lexp_account_prompt_tokens_total"); got != float64(total.PromptTokens) {
		t.Fatalf("metric prompt tokens %v != rollup %d", got, total.PromptTokens)
	}
}

func TestHealthStamping(t *testing.T) {
	p, err := New(Config{Ring: 8})
	if err != nil {
		t.Fatal(err)
	}
	firing := false
	p.SetHealth(func() (bool, string) {
		if firing {
			return false, "slo_firing"
		}
		return true, ""
	})
	ev := sampleEvent(0)
	p.Emit(&ev)
	firing = true
	ev2 := sampleEvent(1)
	p.Emit(&ev2)
	got := p.Events(Filter{})
	if got[0].SLO != "" || got[1].SLO != "slo_firing" {
		t.Fatalf("SLO stamping wrong: %q then %q", got[0].SLO, got[1].SLO)
	}
}

func TestTrainAccumulator(t *testing.T) {
	var a TrainAccumulator
	a.AddStep(64, 1000, 2*time.Millisecond)
	a.AddStep(64, 1000, 3*time.Millisecond)
	e := &a.Event
	if e.TrainSteps != 2 || e.PromptTokens != 128 || e.DenseFLOPs != 2000 || e.ExecFLOPs != 2000 {
		t.Fatalf("accumulator = %+v", e)
	}
	if e.SavedFLOPs() != 0 {
		t.Fatalf("train events must carry zero sparsity savings, got %d", e.SavedFLOPs())
	}
	if e.TotalNs != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("TotalNs = %d", e.TotalNs)
	}
}

func TestKindFilterAndShed(t *testing.T) {
	p, err := New(Config{Ring: 8})
	if err != nil {
		t.Fatal(err)
	}
	gen := Event{Kind: KindGenerate, Tenant: "a", Outcome: "stop"}
	shed := Event{Kind: KindGenerate, Tenant: "a", Outcome: "shed", Limit: "rate_limited"}
	job := Event{Kind: KindFinetune, Tenant: "a", Outcome: "done", TrainSteps: 4}
	for _, e := range []*Event{&gen, &shed, &job} {
		p.Emit(e)
	}
	if got := p.Events(Filter{Kind: KindFinetune}); len(got) != 1 || got[0].TrainSteps != 4 {
		t.Fatalf("kind filter = %+v", got)
	}
	_, total := p.UsageByTenant()
	if total.Requests != 3 || total.Shed != 1 {
		t.Fatalf("usage = %+v", total)
	}
	if !strings.Contains(fmt.Sprint(p.Events(Filter{Outcome: "shed"})), "rate_limited") {
		t.Fatal("shed event lost its limit verdict")
	}
}
