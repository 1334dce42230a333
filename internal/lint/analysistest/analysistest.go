// Package analysistest runs one analyzer over a fixture package and
// checks its diagnostics against // want comments, mirroring the
// x/tools package of the same name on the subset of syntax edgelint
// uses.
//
// Fixtures live in <analyzer>/testdata/src/<importpath>/: the
// directory name under src is the fixture's import path, so a fixture
// named "agg" exercises the deterministic-package rules exactly as
// repro/internal/agg would. Fixture files may import real repro/...
// packages (they resolve against this module) and the standard library.
//
// Expectations are trailing comments of the form
//
//	code() // want "regexp" "second regexp"
//
// Every diagnostic must match a want on its line, and every want must
// be matched by exactly one diagnostic.
package analysistest

import (
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
	"repro/internal/lint/suite"
)

// Run analyses the fixture package testdata/src/<pkgpath> (relative to
// the calling test's directory) with a and compares its diagnostics
// against its // want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkgpath string) {
	t.Helper()
	_, caller, _, ok := runtime.Caller(1)
	if !ok {
		t.Fatal("analysistest: cannot locate caller")
	}
	dir := filepath.Join(filepath.Dir(caller), "testdata", "src", filepath.FromSlash(pkgpath))

	moduleDir, err := load.FindModuleRoot(filepath.Dir(caller))
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	loader, err := load.NewLoader(moduleDir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	pkg, err := loader.LoadDir(dir, pkgpath)
	if err != nil {
		t.Fatalf("analysistest: loading fixture %s: %v", pkgpath, err)
	}
	if len(pkg.Errors) > 0 {
		t.Fatalf("analysistest: fixture %s has type errors: %v", pkgpath, pkg.Errors)
	}
	findings, err := suite.RunPackage(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}

	wants := collectWants(t, pkg)
	for _, f := range findings {
		key := lineKey{f.Pos.Filename, f.Pos.Line}
		if !wants.match(key, f.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.re)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

// want is one diagnostic expectation.
type want struct {
	re      *regexp.Regexp
	matched bool
}

type wantMap map[lineKey][]*want

func (m wantMap) match(key lineKey, msg string) bool {
	for _, w := range m[key] {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// wantRE matches one expectation: a quoted regexp.
var wantRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func collectWants(t *testing.T, pkg *load.Package) wantMap {
	t.Helper()
	out := wantMap{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := lineKey{pos.Filename, pos.Line}
				ms := wantRE.FindAllString(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, m := range ms {
					// The quoted pattern is a Go string literal, so \\( in
					// the fixture reaches the regexp engine as \(.
					pat, err := strconv.Unquote(m)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", pos, m, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp: %v", pos, err)
					}
					out[key] = append(out[key], &want{re: re})
				}
			}
		}
	}
	return out
}
