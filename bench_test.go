package longexposure

// The benchmark harness: one sub-benchmark per registered paper table and
// figure, each running the corresponding experiment driver end to end in
// quick mode (real engine execution at sim scale).
// `go test -run '^$' -bench Experiments .` regenerates every artifact;
// `cmd/longexp` prints them at full fidelity.

import (
	"testing"

	"longexposure/internal/experiments"
)

func BenchmarkExperiments(b *testing.B) {
	if testing.Short() {
		// Even in quick mode a full driver takes seconds — far over the
		// budget of `make bench`, which runs every benchmark in -short
		// mode. Run these locally without -short.
		b.Skip("skipping whole-driver experiment benchmarks in -short mode")
	}
	o := experiments.Options{Quick: true, Seed: 7}
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
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
		})
	}
}
