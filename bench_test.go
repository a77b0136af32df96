package longexposure

// The benchmark harness: one testing.B benchmark per paper table and
// figure, each running the corresponding experiment driver end to end in
// quick mode (real engine execution at sim scale plus the paper-scale cost
// model). `go test -bench=. -benchmem` regenerates every artifact;
// `cmd/longexp` prints them at full fidelity.

import (
	"testing"

	"longexposure/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	if testing.Short() {
		// Even in quick mode a full driver takes seconds — far over the
		// budget of `make bench`, which runs every benchmark in -short
		// mode. Run these locally without -short.
		b.Skipf("skipping experiment benchmark %s in -short mode", id)
	}
	if !experiments.Known(id) {
		// A renamed or not-yet-implemented driver should not fail the
		// whole benchmark run.
		b.Skipf("unknown experiment %q (have %v)", id, experiments.IDs())
	}
	o := experiments.Options{Quick: true, Seed: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Sections) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTable1 regenerates Table I (per-phase time breakdown).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates Table II (model zoo).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3 regenerates Table III (downstream tasks).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4 regenerates Table IV (accuracy with/without LE).
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFig7 regenerates Figure 7 (OPT execution time + speedup).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (memory footprints).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (per-layer sparsity + performance).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (phase breakdown w/ and w/o LE).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (loss curves + predictor viz).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (dynamic operators vs dense).
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13 (GPT-2 scalability).
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14 regenerates Figure 14 (multi-GPU strong scaling).
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig4 regenerates the Figure 4 shadowy-sparsity observation.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkAblations regenerates the design-choice ablation study.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }
