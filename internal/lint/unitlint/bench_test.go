package unitlint

import (
	"testing"

	"unitdb/internal/lint/analysis"
	"unitdb/internal/lint/loader"
)

// BenchmarkUnitlintAnalyzers times each analyzer in the suite over the
// two busiest runtime packages (internal/engine and internal/server),
// loaded once outside the timed region. No gate reads it: CI shows the
// suite's per-analyzer wall time in its job summary (-timings), and this
// benchmark profiles the analyzer whose time grew — e.g. after a CFG
// or dataflow change that slows the flow-sensitive fixpoints.
func BenchmarkUnitlintAnalyzers(b *testing.B) {
	pkgs, err := loader.Load("../../..", []string{"./internal/engine", "./internal/server"})
	if err != nil {
		b.Fatal(err)
	}
	if len(pkgs) == 0 {
		b.Fatal("loader matched no packages")
	}
	for _, a := range Analyzers {
		b.Run(a.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, pkg := range pkgs {
					var diags []analysis.Diagnostic
					if err := a.Run(analysis.NewPass(a, pkg, &diags)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
