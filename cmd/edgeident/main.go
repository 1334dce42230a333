// Command edgeident runs the repository's byte-identity checks: batch
// equals fleet equals daemon, at any worker count and under any fault
// plan. They are one table of cells (cells.go), each a run of one
// producer — edgesim, edgereport, edgestat, segcat, edgetrace, a fleet
// of edgesim PoPs into edgemerged, or an edgestudyd drain — with its
// flags, and the artifacts it yields: stdout less its wall-clock line,
// stderr, its trace file and its output directory.
//
// Usage, from the repository root:
//
//	edgeident              # self-consistency: the tree agrees with itself
//	edgeident -parent REV  # every cell agrees with REV's binaries
//
// Every producer is built once with -race. By default each cell must
// equal the cells its row names (workers 1 vs 4, batch vs row oracle vs
// the segcat re-import, fleet spool vs single process, daemon /report
// and spool vs batch). With -parent, REV's producers are built from a
// temporary git worktree, every cell runs on both sets, and each must
// equal its twin, stderr included; a twin whose producer lacks one of
// the cell's flags, or that REV does not have, is reported as "parent
// cannot run", not as a difference, and so is a cell whose input the
// parent cannot run. Either way one line is printed per cell, and the
// exit status is 1 when any cell failed or differed.
package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// producers are the commands the cells run.
var producers = []string{"edgesim", "edgereport", "edgestat", "segcat", "edgetrace", "edgemerged", "edgestudyd"}

func main() {
	parent := flag.String("parent", "", "also run every cell on this git revision's binaries and compare each with its twin")
	flag.Parse()
	os.Exit(run(*parent))
}

func run(parent string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	tmp, err := os.MkdirTemp("", "edgeident-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "edgeident: %v\n", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(tmp) }()

	cur := side{bins: filepath.Join(tmp, "bin"), root: filepath.Join(tmp, "cells"), deadline: cellDeadline}
	if err := build(ctx, ".", cur.bins); err != nil {
		fmt.Fprintf(os.Stderr, "edgeident: building this tree: %v\n", err)
		return 1
	}
	table := cells()
	// The race-built producers are small runs that spend about as long
	// in the race runtime's exit sleep as on a CPU: two per CPU keep the
	// CPUs busy.
	slots := make(chan struct{}, 2*runtime.NumCPU())
	var failed int
	if parent == "" {
		failed = selfCheck(os.Stdout, table, cur.start(ctx, table, slots))
	} else {
		src := filepath.Join(tmp, "parent-src")
		// Registered before the add, so a failed or interrupted run
		// leaves no worktree behind either.
		defer removeWorktree(src)
		if err := git("worktree", "add", "--detach", src, parent); err != nil {
			fmt.Fprintf(os.Stderr, "edgeident: %v\n", err)
			return 1
		}
		par := side{bins: filepath.Join(tmp, "parent-bin"), root: filepath.Join(tmp, "parent-cells"), deadline: cellDeadline}
		if err := build(ctx, src, par.bins); err != nil {
			fmt.Fprintf(os.Stderr, "edgeident: building %s: %v\n", parent, err)
			return 1
		}
		failed = parentCheck(os.Stdout, table, cur.start(ctx, table, slots), par.start(ctx, table, slots))
	}
	fmt.Fprintf(os.Stderr, "edgeident: %d cells, %d failed, %s\n", len(table), failed, time.Since(start).Round(100*time.Millisecond))
	if failed > 0 || ctx.Err() != nil {
		return 1
	}
	return 0
}

// build compiles every producer the tree at src has into bins.
func build(ctx context.Context, src, bins string) error {
	args := []string{"build", "-race", "-o", bins + string(filepath.Separator)}
	for _, p := range producers {
		if _, err := os.Stat(filepath.Join(src, "cmd", p)); err == nil {
			args = append(args, "./cmd/"+p)
		}
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = src
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

func git(args ...string) error {
	if out, err := exec.Command("git", args...).CombinedOutput(); err != nil {
		return fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(string(out)))
	}
	return nil
}

// removeWorktree deletes the worktree at dir and git's record of it;
// there is nothing to remove when the add never happened.
func removeWorktree(dir string) {
	if _, err := os.Stat(dir); err != nil {
		return
	}
	if err := git("worktree", "remove", "--force", dir); err != nil {
		fmt.Fprintf(os.Stderr, "edgeident: %v\n", err)
	}
}

// A job is one cell running on one side; res is set when done closes.
type job struct {
	done chan struct{}
	res  *result
}

// start runs every cell on s, each once its input cell is done and a
// slot is free, and returns the jobs by cell name.
func (s side) start(ctx context.Context, table []cell, slots chan struct{}) map[string]*job {
	jobs := make(map[string]*job, len(table))
	for _, c := range table {
		jobs[c.name] = &job{done: make(chan struct{})}
	}
	for _, c := range table {
		j := jobs[c.name]
		go func() {
			defer close(j.done)
			if c.in != "" {
				in := jobs[c.in]
				<-in.done
				if in.res.err != nil {
					j.res = &result{err: fmt.Errorf("its input %s failed: %w", c.in, in.res.err)}
					return
				}
			}
			slots <- struct{}{}
			defer func() { <-slots }()
			j.res = s.run(ctx, c)
		}()
	}
	return jobs
}

// selfCheck prints one line per cell, in table order: ok when it ran
// and equals every cell its row names, FAIL otherwise. It returns the
// number of cells that failed.
func selfCheck(w io.Writer, table []cell, jobs map[string]*job) int {
	failed := 0
	for _, c := range table {
		j := jobs[c.name]
		<-j.done
		verdict, detail := "ok", strings.Join(c.like, " ")
		if detail != "" {
			detail = "= " + detail
		}
		if d := judge(c, jobs); d != "" {
			verdict, detail = "FAIL", d
			failed++
		}
		fmt.Fprintf(w, "%-4s  %-26s %7s  %s\n", verdict, c.name, j.res.wall.Round(100*time.Millisecond), detail)
	}
	return failed
}

// judge says what is wrong with c's run, or "".
func judge(c cell, jobs map[string]*job) string {
	res := jobs[c.name].res
	if res.err != nil {
		return res.err.Error()
	}
	for _, l := range c.like {
		ref, kind, _ := strings.Cut(l, ":")
		want := jobs[ref].res
		if want.err != nil {
			return "cannot compare: " + ref + " failed"
		}
		got := res.art
		if k, name, ok := strings.Cut(kind, "="); ok {
			kind, got = k, map[string][sha256.Size]byte{}
			if h, ok := res.art[name]; ok {
				got[k] = h
			}
		}
		if d := diff(got, want.art, kind); len(d) > 0 {
			return "differs from " + ref + ": " + summary(d)
		}
	}
	return ""
}

// parentCheck prints one line per cell, in table order: equal, differs,
// parent cannot run, or FAIL when the cell fails on this tree. It returns
// the number of cells that failed or differed.
func parentCheck(w io.Writer, table []cell, cur, par map[string]*job) int {
	failed := 0
	for _, c := range table {
		<-cur[c.name].done
		<-par[c.name].done
		verdict, detail := twin(cur[c.name].res, par[c.name].res)
		if verdict == "FAIL" || verdict == "differs" {
			failed++
		}
		fmt.Fprintf(w, "%-17s  %-26s %7s %7s  %s\n", verdict, c.name,
			cur[c.name].res.wall.Round(100*time.Millisecond), par[c.name].res.wall.Round(100*time.Millisecond), detail)
	}
	return failed
}

// twin compares a cell's run on this tree with its run on the parent's.
func twin(cur, par *result) (verdict, detail string) {
	switch {
	case cur.err != nil:
		return "FAIL", cur.err.Error()
	case errors.Is(par.err, errCannotRun):
		return "parent cannot run", par.err.Error()
	case par.err != nil:
		return "differs", "the parent's run failed: " + par.err.Error()
	}
	if d := diff(cur.art, par.art, ""); len(d) > 0 {
		return "differs", summary(d)
	}
	return "equal", ""
}

// summary joins the first three differences and counts the rest.
func summary(d []string) string {
	if len(d) > 3 {
		return fmt.Sprintf("%s and %d more", strings.Join(d[:3], ", "), len(d)-3)
	}
	return strings.Join(d, ", ")
}
