package repro

// The evaluation in miniature: every pinned configuration of
// harness.Catalogue as a sub-benchmark, reporting its virtual seconds
// beside the host-time measurement. The paper's tables and figures are
// cmd/orca-bench's experiments; what the stack costs the host is
// bench/'s ladder.

import (
	"testing"

	"repro/internal/harness"
)

// BenchmarkCatalogue runs each catalogue entry once per iteration.
func BenchmarkCatalogue(b *testing.B) {
	for _, p := range harness.Catalogue() {
		b.Run(p.Name, func(b *testing.B) {
			var r harness.Ran[any]
			for i := 0; i < b.N; i++ {
				r = p.Run()
			}
			b.ReportMetric(r.Report.Elapsed.Seconds(), "virtual-s")
		})
	}
}
