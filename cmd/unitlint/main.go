// Command unitlint checks UNIT's determinism invariants:
//
//	unitlint [-only detclock,seededrand] [-json] [-baseline file]
//	         [-strict-baseline] [packages]
//
// Patterns default to ./... and follow go-tool shape (./internal/...,
// ./cmd/unitsim). Exit status is 0 when clean, 1 on findings, 2 on usage
// or load errors.
//
// -json streams findings as JSON lines ({"file","line","col","analyzer",
// "message"}), the format CI archives and baselines use. A lint.baseline
// file in the working directory is loaded automatically (disable with
// -baseline -): baselined findings are tolerated, new ones fail the run,
// and every stale entry is listed with its file and analyzer — a warning
// by default, exit status 1 under -strict-baseline (what `make ci` uses,
// so fixed findings force a baseline regeneration). Regenerate with
// `make lint-baseline`; the baseline is the only way to tolerate a
// finding.
//
// Run `unitlint -help` for the analyzer list.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"unitdb/internal/lint/unitlint"
)

func main() {
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON lines")
	baseline := flag.String("baseline", "", "baseline file of tolerated findings (default lint.baseline when present; - disables)")
	strictBaseline := flag.Bool("strict-baseline", false, "exit nonzero when the baseline holds stale entries")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: unitlint [flags] [packages]\n\nAnalyzers:\n")
		printAnalyzers(flag.CommandLine.Output())
		fmt.Fprintln(flag.CommandLine.Output(), "\nFlags:")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		printAnalyzers(os.Stdout)
		return
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := unitlint.Options{JSON: *jsonOut, Baseline: *baseline, StrictBaseline: *strictBaseline}
	os.Exit(unitlint.Main(os.Stdout, dir, *only, opts, flag.Args()))
}

func printAnalyzers(w io.Writer) {
	for _, a := range unitlint.Analyzers {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
}
