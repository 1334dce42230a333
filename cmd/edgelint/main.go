// Command edgelint runs the repo's domain-specific static analyzers
// (internal/lint/...): closecheck, nondeterminism, poisonpath and
// rowfree — the contracts the compiler cannot see (DESIGN.md §8).
// Pooled-batch ownership is not among them: the leak-checked tests
// check it at run time (DESIGN.md §13).
//
// It type-checks the module from source (no build cache needed), then
// analyzes every package, each on its own. _test.go files are never
// loaded: the contracts target production code.
//
//	edgelint            # the module containing the current directory
//	edgelint ./agg      # only report findings under a directory
//	edgelint -list      # print the analyzers and their contracts
//	edgelint -stats .   # add per-analyzer wall time and finding counts
//
// Exit status: 0 clean, 1 findings, 2 usage or analysis failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/lint/load"
	"repro/internal/lint/suite"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and their contracts")
	stats := flag.Bool("stats", false, "print per-analyzer wall time and finding counts")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: edgelint [-list] [-stats] [dir]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range suite.Analyzers {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}
	dir := "."
	if flag.NArg() > 0 {
		dir = strings.TrimSuffix(flag.Arg(0), "/...")
		if dir == "" {
			dir = "."
		}
	}
	os.Exit(run(dir, os.Stdout, *stats))
}

// run lints the module containing dir, prints the findings under dir
// to out (then the per-analyzer table when stats is set), and returns
// the exit status.
func run(dir string, out io.Writer, stats bool) int {
	res, err := lint(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edgelint: %v\n", err)
		return 2
	}
	for _, f := range res.Findings {
		fmt.Fprintln(out, f)
	}
	if stats {
		fmt.Fprintf(out, "packages: %d analyzed\n", res.Packages)
		for _, st := range res.Stats {
			fmt.Fprintf(out, "%15s  %10v  %d finding(s)\n", st.Name, st.Time.Round(10*time.Microsecond), st.Findings)
		}
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "edgelint: %d finding(s) in %d package(s)\n", len(res.Findings), res.Packages)
		return 1
	}
	return 0
}

// lint loads and analyzes the whole module containing dir and keeps the
// findings rooted under dir, with paths relative to it — this is what
// `edgelint ./agg` means.
func lint(dir string) (*suite.Result, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	moduleDir, err := load.FindModuleRoot(abs)
	if err != nil {
		return nil, err
	}
	loader, err := load.NewLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	res, err := suite.Run(pkgs, suite.Analyzers)
	if err != nil {
		return nil, err
	}
	under := res.Findings[:0]
	for _, f := range res.Findings {
		rel, err := filepath.Rel(abs, f.Pos.Filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		f.Pos.Filename = rel
		under = append(under, f)
	}
	res.Findings = under
	return res, nil
}
