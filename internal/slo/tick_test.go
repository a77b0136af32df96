package slo

import (
	"testing"
	"time"

	"longexposure/internal/obs"
)

// steadyConfig exercises every source kind at a cadence that keeps the
// sample rings busy without firing alerts (the traffic fed below is
// healthy).
func steadyConfig() Config {
	return Config{
		Interval: Duration(time.Second),
		Objectives: []Objective{
			{Name: "latency", Kind: KindLatency, Route: "GET /bench", Threshold: 0.5, Target: 0.99},
			{Name: "availability", Kind: KindAvailability, Route: "GET /bench", Target: 0.99},
			{Name: "queue-wait", Kind: KindQueueWait, Route: "generate", Threshold: 0.5, Target: 0.95},
			{Name: "jobs", Kind: KindJobFailure, Target: 0.9},
			{Name: "density", Kind: KindDensityDrift, Expected: 0.5, Threshold: 0.25, Target: 0.9},
		},
	}
}

// tickRing is the recorder tick ring the recorder cases warm for one lap.
const tickRing = 32

// steadyEngine builds an engine over steadyConfig with every instrument
// its objectives read created and fed, then ticks it on a synthetic clock
// until the sample rings, the source handle caches and (withRecorder) one
// full lap of the flight recorder's tick ring are warm. tick advances the
// clock one interval and runs one evaluation pass.
func steadyEngine(tb testing.TB, withRecorder bool) (eng *Engine, tick func()) {
	tb.Helper()
	reg := obs.NewRegistry()
	httpm := obs.NewHTTPMetrics(reg)
	httpm.Latency.With("GET /bench").Observe(0.001)
	httpm.Requests.With("GET /bench", "2xx").Inc()
	ep := obs.NewLimitMetrics(reg).Endpoint("generate")
	ep.WaitSeconds.Observe(0.001)
	ep.ShedQueueFull.Inc()
	jm := obs.NewJobsMetrics(reg)
	jm.Done.Add(100)
	jm.Failed.Inc()
	sm := obs.NewServingSparsityMetrics(reg)
	for l := 0; l < 8; l++ {
		sm.SetMLP(l, 0.5)
		sm.SetAttn(l, 0.5)
	}
	deps, warm := Deps{Metrics: reg}, 4
	if withRecorder {
		deps.Recorder, warm = NewRecorder(RecorderConfig{TickRing: tickRing}, nil), tickRing+2
	}
	eng, err := New(steadyConfig(), deps)
	if err != nil {
		tb.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	tick = func() {
		now = now.Add(time.Second)
		eng.Tick(now)
	}
	for i := 0; i < warm; i++ {
		tick()
	}
	return eng, tick
}

// tickCases are the Tick configurations pinned and timed below.
var tickCases = []struct {
	name         string
	withRecorder bool
}{{"tick_steady", false}, {"tick_recorder", true}}

// TestSteadyTickZeroAllocs pins Tick's steady state — five objectives
// sampled, windowed burn rates, the alert state machine, gauge updates —
// at exactly zero allocations, bare and with a flight recorder whose tick
// ring has run one full lap (after that, recording refills slots in
// place).
func TestSteadyTickZeroAllocs(t *testing.T) {
	for _, tc := range tickCases {
		_, tick := steadyEngine(t, tc.withRecorder)
		if n := testing.AllocsPerRun(100, tick); n != 0 {
			t.Errorf("%s: Tick allocates %v/op, want 0", tc.name, n)
		}
	}
}

// BenchmarkSLO times the steady evaluation tick, bare and with the
// recorder, and GET /debug/slo's report assembly (which allocates by
// design).
func BenchmarkSLO(b *testing.B) {
	for _, tc := range tickCases {
		b.Run(tc.name, func(b *testing.B) {
			_, tick := steadyEngine(b, tc.withRecorder)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
			}
		})
	}
	b.Run("report", func(b *testing.B) {
		eng, _ := steadyEngine(b, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := eng.Report(); len(rep.Objectives) != 5 {
				b.Fatalf("report has %d objectives, want 5", len(rep.Objectives))
			}
		}
	})
}
