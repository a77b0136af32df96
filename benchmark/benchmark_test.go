package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(seq(199), 0.95); err == nil {
		t.Error("p95 of 199 samples must be refused")
	}
	if v, err := percentile(seq(200), 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if _, err := percentile(seq(1000), 0.5); err == nil {
		t.Error("percentile is for tails; 0.5 must be refused")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5].
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil || [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, %v; want %v", tc.xs, q1, q2, q3, err, tc.want)
		}
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSSEFramesSplitAndKeepalive(t *testing.T) {
	const stream = ": keepalive\n\n" +
		"event: token\ndata: {\"token\":7,\"index\":0}\n\n" +
		": keepalive\n\n: keepalive\n\n" +
		"event: token\r\ndata: {\"token\":9,\r\ndata: \"index\":1}\r\n\r\n" +
		"event: done\n: comment inside a frame\ndata: {}\n\n"
	want := []sseFrame{
		{"token", []byte(`{"token":7,"index":0}`)},
		{"token", []byte("{\"token\":9,\n\"index\":1}")},
		{"done", []byte(`{}`)},
	}
	for name, r := range map[string]io.Reader{
		"whole":        strings.NewReader(stream),
		"byte-by-byte": iotest.OneByteReader(strings.NewReader(stream)),
	} {
		br := bufio.NewReaderSize(r, 16)
		for i, w := range want {
			f, err := readSSEFrame(br)
			if err != nil || f.Event != w.Event || !bytes.Equal(f.Data, w.Data) {
				t.Fatalf("%s: frame %d = %q %q, %v; want %q %q", name, i, f.Event, f.Data, err, w.Event, w.Data)
			}
		}
		if _, err := readSSEFrame(br); err != io.EOF {
			t.Errorf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
	if _, err := readSSEFrame(bufio.NewReader(strings.NewReader("event: token\ndata: {}\n"))); err != io.ErrUnexpectedEOF {
		t.Errorf("stream cut inside a frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

// requestStream renders the first n requests of every client, in order.
func requestStream(seed uint64, n int) []byte {
	g := newRequestGen(seed, 128)
	adapters := []string{"ad-a", "ad-b"}
	var out []byte
	for c := 0; c < 4; c++ {
		for j := 0; j < n; j++ {
			a, pr := g.pick(c, j, len(adapters))
			out = append(out, g.body(adapters[a], pr, "auto")...)
			out = append(out, '\n')
		}
	}
	return out
}

func TestRequestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := requestStream(1, 50), requestStream(1, 50), requestStream(2, 50)
	if !bytes.Equal(a, b) {
		t.Error("the same seed produced different request streams")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced the same request stream")
	}
	var req generateBody
	if err := json.Unmarshal(a[:bytes.IndexByte(a, '\n')], &req); err != nil {
		t.Fatal(err)
	}
	if req.Decode.Sampling.MaxTokens != maxTokens || req.Decode.Sparsity.Mode != "auto" || len(req.Prompt) == 0 {
		t.Errorf("unexpected request %+v", req)
	}
	for _, tok := range req.Prompt {
		if tok < 10 || tok >= 128 {
			t.Errorf("prompt token %d outside [TokBase, vocab)", tok)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},       // overlaps a: 30–40 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},      // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "a.child", Start: 10, End: 40}, // covers a entirely
		{ID: 6, Parent: 3, Name: "inside", Start: 35, End: 36},
	}
	setSelfTimes(spans)
	want := map[string]int64{"root": 100 - 50 - 10, "a": 0, "b": 29, "c": 30, "a.child": 30, "inside": 1}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self time of %s = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
	if got := selfByName(spans)["b"]; got != 29e-6 {
		t.Errorf("selfByName b = %v ms, want 29e-6", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := bound{Name: "gap_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := bound{Name: "tokens_per_s", Unit: "tokens/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 75, 125, 100, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		m    bound
		want string
	}{
		{"same", steady, steady, lower, verdictOK},
		{"slower within bound", steady, scale(steady, 1.08), lower, verdictOK},
		{"slower beyond bound", steady, scale(steady, 1.15), lower, verdictRegressed},
		{"faster", steady, scale(steady, 0.5), lower, verdictOK},
		{"throughput down", steady, scale(steady, 0.85), higher, verdictRegressed},
		{"throughput up", steady, scale(steady, 1.5), higher, verdictOK},
		{"spread wider than the bound", noisy, scale(steady, 1.5), lower, verdictUnresolved},
	} {
		if _, got := verdict(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, gap float64) string {
		var buf bytes.Buffer
		for i := 0; i < 5; i++ {
			rec := record{Workload: "finetune.dense", result: result{Metrics: map[string]value{"gap_ms": {gap + float64(i)*0.01, "ms"}}}}
			line, _ := json.Marshal(rec)
			buf.Write(append(line, '\n'))
		}
		// A traced record must not count.
		line, _ := json.Marshal(record{Workload: "finetune.dense", Trace: 1, result: result{Metrics: map[string]value{"gap_ms": {1e6, "ms"}}}})
		buf.Write(append(line, '\n'))
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.jsonl", 50), write("same.jsonl", 51), write("slow.jsonl", 80)
	spec := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, spec, a, same); err != nil || regressed {
		t.Errorf("a vs same: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err := compareFiles(&out, spec, a, slow); err != nil || !regressed {
		t.Errorf("a vs slow: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) || !strings.Contains(out.String(), "finetune.dense") {
		t.Errorf("the comparison does not name the regressed pairing:\n%s", out.String())
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in
// workloads.go are what the program reports. They must name the same things.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []bound `json:"end_to_end"`
		PerLayer  []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []bound, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
