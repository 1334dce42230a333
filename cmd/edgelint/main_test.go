package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDriver compiles the edgelint binary for one test.
func buildDriver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "edgelint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building edgelint: %v\n%s", err, out)
	}
	return bin
}

// lintWith runs the built driver and returns its stdout and exit code.
func lintWith(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running edgelint %v: %v", args, err)
	}
	t.Logf("edgelint %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, &stdout, &stderr)
	return stdout.String(), code
}

// The driver over the known-bad fixture module must surface one finding
// per planted violation and exit 1; given a directory inside it, it
// reports only what lies under that directory.
func TestStandaloneOnBadModule(t *testing.T) {
	bin := buildDriver(t)
	for _, tc := range []struct {
		args     []string
		exit     int
		findings int
		wants    []string
	}{
		{args: []string{"testdata/badmod"}, exit: 1, findings: 5, wants: []string{
			"wall-clock read time.Now in deterministic package agg",
			"global math/rand draw rand.Int",
			"append to out during map iteration without a subsequent sort",
			"unchecked error from (*bufio.Writer).Flush",
			"Orphan creates a pipeline group but has no context.Context parameter",
		}},
		{args: []string{"testdata/badmod/agg"}, exit: 1, findings: 3, wants: []string{
			"\nagg.go:13:9: nondeterminism: wall-clock read time.Now in deterministic package agg;",
			"\nagg.go:18:9: nondeterminism: global math/rand draw rand.Int in deterministic package agg;",
			"\nagg.go:25:3: nondeterminism: append to out during map iteration without a subsequent sort;",
		}},
		// The flags that selected the deleted drivers are usage errors.
		{args: []string{"-cache", "off", "testdata/badmod"}, exit: 2},
		{args: []string{"-json", "testdata/badmod"}, exit: 2},
	} {
		stdout, code := lintWith(t, bin, tc.args...)
		if code != tc.exit {
			t.Errorf("edgelint %v: exit %d, want %d", tc.args, code, tc.exit)
		}
		if n := strings.Count(stdout, "\n"); n != tc.findings {
			t.Errorf("edgelint %v: %d finding(s), want %d", tc.args, n, tc.findings)
		}
		for _, want := range tc.wants {
			if !strings.Contains("\n"+stdout, want) {
				t.Errorf("edgelint %v: missing diagnostic %q", tc.args, want)
			}
		}
	}
}

// A finding in one package can depend on the exported types of another
// that did not itself change: every run must re-derive every package's
// findings from the current tree. (A result cache keyed on a package's
// own files and its dependencies' facts answered the second run below
// from the first.)
func TestFindingsFollowDependencyTypes(t *testing.T) {
	bin := buildDriver(t)
	mod := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	const dep = "package dep\n\ntype W struct{}\n\nfunc (*W) Seal() {}\n"
	write("go.mod", "module sealmod\n\ngo 1.22\n")
	write("dep/dep.go", dep)
	write("use/use.go", "package use\n\nimport \"sealmod/dep\"\n\nfunc Finish(w *dep.W) {\n\tw.Seal()\n}\n")

	if stdout, code := lintWith(t, bin, mod); code != 0 || stdout != "" {
		t.Fatalf("clean module: exit %d, want 0 and no findings", code)
	}
	write("dep/dep.go", strings.Replace(dep, "Seal() {}", "Seal() error { return nil }", 1))
	stdout, code := lintWith(t, bin, mod)
	if want := "use/use.go:6:2: closecheck: unchecked error from (*sealmod/dep.W).Seal"; code != 1 || !strings.Contains(stdout, want) {
		t.Errorf("after dep.W.Seal gained an error result: exit %d, want 1 with %q", code, want)
	}
}

// The repo itself must lint clean: every genuine finding the suite has
// surfaced is fixed (or carries an //edgelint:allow with a recorded
// reason), and stays that way.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint in -short mode")
	}
	var out bytes.Buffer
	if code := run("../..", &out, false); code != 0 {
		t.Fatalf("edgelint on the repo exited %d:\n%s", code, &out)
	}
}
