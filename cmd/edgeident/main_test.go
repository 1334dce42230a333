package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// fakes writes shell scripts standing in for producers into a fresh
// directory and returns a side that runs them.
func fakes(t *testing.T, deadline time.Duration, scripts map[string]string) side {
	t.Helper()
	bins := t.TempDir()
	for name, body := range scripts {
		if err := os.WriteFile(filepath.Join(bins, name), []byte("#!/bin/sh\n"+body+"\n"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return side{bins: bins, root: t.TempDir(), deadline: deadline}
}

// The fake producers. edgesim writes out/<name> for every argument after
// the first, holding the first; edgereport prints a report with $1
// wall-clock lines; edgestat exits with status $1, its reason last;
// edgetrace sleeps $1 seconds.
var scripts = map[string]string{
	"edgesim":    `v=$1; shift; mkdir out; for f in "$@"; do printf %s "$v" > "out/$f"; done`,
	"edgereport": `echo Dataset; i=0; while [ $i -lt $1 ]; do echo "Generated and analysed in 1.2s"; i=$((i+1)); done; echo; echo body`,
	"edgestat":   `echo table; echo "edgestat: opening" >&2; echo "edgestat: no dataset" >&2; exit $1`,
	"edgetrace":  `exec sleep $1`,
}

// Every way a cell can go wrong fails that cell, and only that cell:
// its twin's reference and an equal cell stay ok.
func TestRunnerFailsACell(t *testing.T) {
	for _, tc := range []struct {
		name string
		cell cell   // compared with ref when it has like
		want string // in the failing cell's line; "" = the cell passes
	}{
		{"equal", cell{prog: "edgesim", args: []string{"v", "out", "a", "b"}, like: []string{"ref"}}, ""},
		{"a differing byte", cell{prog: "edgesim", args: []string{"w", "out", "a", "b"}, like: []string{"ref"}}, "out/a differs"},
		{"a missing file", cell{prog: "edgesim", args: []string{"v", "out", "a"}, like: []string{"ref"}}, "missing out/b"},
		{"an extra file", cell{prog: "edgesim", args: []string{"v", "out", "a", "b", "c"}, like: []string{"ref"}}, "extra out/c"},
		{"a sidecar beside out", cell{prog: "edgesim", args: []string{"v", "out", "a", "b", "../trace.timing"}}, `directory holds ["out" "trace.timing"], want ["out"]`},
		{"a kind compared alone", cell{prog: "edgesim", args: []string{"w", "out", "a", "b"}, like: []string{"ref:stdout"}}, ""},
		{"an artifact compared under another name", cell{prog: "edgesim", args: []string{"v", "out", "c"}, like: []string{"ref:out/a=out/c"}}, ""},
		{"a differing artifact under another name", cell{prog: "edgesim", args: []string{"w", "out", "c"}, like: []string{"ref:out/a=out/c"}}, "out/a differs"},
		{"a missing artifact under another name", cell{prog: "edgesim", args: []string{"v", "out", "c"}, like: []string{"ref:out/a=out/d"}}, "missing out/a"},
		{"one wall-clock line", cell{prog: "edgereport", args: []string{"1"}}, ""},
		{"a missing wall-clock line", cell{prog: "edgereport", args: []string{"0"}}, "stdout held 0 wall-clock lines, want 1"},
		{"a doubled wall-clock line", cell{prog: "edgereport", args: []string{"2"}}, "stdout held 2 wall-clock lines, want 1"},
		{"a non-zero exit", cell{prog: "edgestat", args: []string{"3"}}, "edgestat: exit status 3: edgestat: no dataset"},
		{"a blown deadline", cell{prog: "edgetrace", args: []string{"10"}}, "blew its 500ms deadline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := fakes(t, 500*time.Millisecond, scripts)
			tc.cell.name = "cell"
			table := []cell{{name: "ref", prog: "edgesim", args: []string{"v", "out", "a", "b"}}, tc.cell}
			var out bytes.Buffer
			start := time.Now()
			failed := selfCheck(&out, table, s.start(context.Background(), table, make(chan struct{}, 2)))
			if time.Since(start) > 5*time.Second {
				t.Errorf("the run took %v: a blown deadline must end the cell", time.Since(start))
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if len(lines) != 2 || !strings.HasPrefix(lines[0], "ok ") {
				t.Fatalf("want the reference ok and one line per cell, got:\n%s", out.String())
			}
			if tc.want == "" {
				if failed != 0 || !strings.HasPrefix(lines[1], "ok ") {
					t.Fatalf("want the cell ok, got:\n%s", out.String())
				}
				return
			}
			if failed != 1 || !strings.HasPrefix(lines[1], "FAIL ") || !strings.Contains(lines[1], tc.want) {
				t.Fatalf("want the cell to FAIL with %q, got:\n%s", tc.want, out.String())
			}
		})
	}
}

// The shippers' ack log is left out of a fleet's spool and a wire
// daemon's, which no single process writes, and of no other cell's.
func TestAcksExemptOnlyInFleetCells(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"MANIFEST.json", "ACKS.json"} {
		if err := os.MkdirAll(filepath.Join(dir, "out"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "out", f), []byte(f), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	arts := map[string]map[string][32]byte{}
	for _, prog := range []string{fleet, wire, daemon, "edgesim"} {
		c := cell{prog: prog, args: []string{"-o", "out"}}
		arts[prog] = map[string][32]byte{}
		if err := collect(c, dir, arts[prog]); err != nil {
			t.Fatal(err)
		}
	}
	for _, prog := range []string{fleet, wire} {
		if d := diff(arts[prog], arts["edgesim"], "out"); strings.Join(d, " ") != "missing out/ACKS.json" {
			t.Errorf("%s against edgesim: %q, want only the ack log missing", prog, d)
		}
	}
	if d := diff(arts[daemon], arts["edgesim"], ""); len(d) != 0 {
		t.Errorf("daemon against edgesim: %q, want equal", d)
	}
}

// With -parent, each cell is compared with its twin: a parent whose
// producer lacks one of the cell's flags, or that has no such producer,
// cannot run it, which is not a difference, and neither can it run a
// cell that reads that one's output; a parent that prints other bytes
// differs, and a parent whose run failed differs for its dependents too.
func TestParentTwins(t *testing.T) {
	cur := fakes(t, time.Minute, scripts)
	for _, tc := range []struct {
		parent   string    // the parent's edgereport
		verdicts [2]string // the report's, then its dependent's
		failed   int
	}{
		{scripts["edgereport"], [2]string{"equal", "equal"}, 0},
		{`printf 'flag provided but not defined: -row-oracle\nUsage of edgereport:\n  -cdf\n' >&2; exit 2`, [2]string{"parent cannot run", "parent cannot run"}, 0},
		{`echo Dataset; echo "Generated and analysed in 3s"; echo; echo other`, [2]string{"differs", "equal"}, 1},
		{`echo Dataset; echo "Generated and analysed in 3s"; echo; echo body; echo warning >&2`, [2]string{"differs", "equal"}, 1},
		{`exit 1`, [2]string{"differs", "differs"}, 2},
		{"", [2]string{"parent cannot run", "parent cannot run"}, 0}, // no edgereport at all
	} {
		parScripts := map[string]string{"edgestat": scripts["edgestat"]}
		if tc.parent != "" {
			parScripts["edgereport"] = tc.parent
		}
		par := fakes(t, time.Minute, parScripts)
		table := []cell{
			{name: "report", prog: "edgereport", args: []string{"1"}},
			{name: "stat", prog: "edgestat", in: "report", args: []string{"0"}},
		}
		slots := make(chan struct{}, 2)
		var out bytes.Buffer
		failed := parentCheck(&out, table, cur.start(context.Background(), table, slots), par.start(context.Background(), table, slots))
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[0], tc.verdicts[0]+" ") || !strings.HasPrefix(lines[1], tc.verdicts[1]+" ") || failed != tc.failed {
			t.Errorf("parent %q: got %d failed,\n%s want %q", tc.parent, failed, out.String(), tc.verdicts)
		}
	}
}

// The table is runnable: names are unique and make plain directory
// names, every producer is known, and every cell an input or a
// comparison names runs earlier.
func TestCellsWellFormed(t *testing.T) {
	known := map[string]bool{fleet: true, daemon: true, wire: true}
	for _, p := range producers {
		known[p] = true
	}
	seen := map[string]bool{}
	for _, c := range cells() {
		if c.name == "" || seen[c.name] || strings.ContainsAny(c.name, `/\ .`) {
			t.Errorf("cell name %q: empty, repeated or not a plain directory name", c.name)
		}
		if !known[c.prog] {
			t.Errorf("%s: unknown producer %q", c.name, c.prog)
		}
		if c.in != "" && !seen[c.in] {
			t.Errorf("%s: input %q is not an earlier cell", c.name, c.in)
		}
		for _, l := range c.like {
			ref, kind, _ := strings.Cut(l, ":")
			kind, name, renamed := strings.Cut(kind, "=")
			if !seen[ref] {
				t.Errorf("%s: like %q is not an earlier cell", c.name, ref)
			}
			if kind != "" && kind != "stdout" && kind != "stderr" && kind != "out" && kind != "trace" {
				t.Errorf("%s: like %q names no artifact kind", c.name, l)
			}
			if q, ok := strings.CutPrefix(name, "report?"); renamed && (!ok || !slices.Contains(c.queries, q)) {
				t.Errorf("%s: like %q names no artifact the cell yields", c.name, l)
			}
		}
		if len(c.queries) > 0 && c.prog != daemon {
			t.Errorf("%s: only a daemon drill sends queries", c.name)
		}
		seen[c.name] = true
	}
}
