package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/study"
)

// The drills: producers that are several processes, not one.
const (
	fleet  = "fleet"  // edgemerged fed by two edgesim PoPs
	daemon = "daemon" // a live edgestudyd, drained, /report read, interrupted
	wire   = "wire"   // edgestudyd -listen fed by two edgesim PoPs, then as daemon
)

// cellDeadline bounds every cell: a producer that hangs (a daemon that
// never drains, a merger waiting on a PoP that died) fails its cell
// instead of the whole run.
const cellDeadline = 3 * time.Minute

// A cell is one run of one producer. A process cell runs prog with args
// in a directory of its own, where "IN/x" names x in the directory of
// the cell in. Its artifacts are its stdout (a report loses its one
// wall-clock line), its stderr (but segcat's, which times itself) and
// every file it leaves in its directory; that directory must hold
// exactly "out" when an argument names it and "trace" when one names
// that. A drill's args are its edgestudyd flags or its PoPs' edgesim
// flags; it yields "out" (less ACKS.json, the shippers' ack log, which no
// single process writes) and, for daemon and wire, the /report body as
// its stdout.
type cell struct {
	name string
	prog string
	args []string
	in   string
	// like lists the earlier cells this one must equal: "c" compares
	// every artifact, "c:kind" only stdout, stderr, out or trace, and
	// "c:kind=name" c's artifact kind with this cell's artifact name.
	like []string
	// queries are /report query strings a daemon drill, once drained,
	// sends all at once; each body is the artifact "report?" + query.
	queries []string
}

// files is what the cell's directory must hold once it has run.
func (c cell) files() []string {
	drill := c.prog == fleet || c.prog == daemon || c.prog == wire
	var want []string
	for _, f := range []string{"out", "trace"} {
		if f == "out" && drill || slices.Contains(c.args, f) {
			want = append(want, f)
		}
	}
	return want
}

// A side is one set of race-built producers and the directory its cells
// run in, one subdirectory each.
type side struct {
	bins, root string
	deadline   time.Duration
}

// A result is what one cell yielded: a digest per artifact, keyed
// "stdout", "stderr", "trace" or "out/<path>" ("out" for a file).
type result struct {
	art  map[string][sha256.Size]byte
	err  error
	wall time.Duration
}

// run runs c within the side's deadline and collects its artifacts.
func (s side) run(ctx context.Context, c cell) *result {
	start := time.Now()
	res := &result{art: map[string][sha256.Size]byte{}}
	res.err = s.produce(ctx, c, res)
	res.wall = time.Since(start)
	return res
}

func (s side) produce(ctx context.Context, c cell, res *result) error {
	dir := filepath.Join(s.root, c.name)
	tmp := dir + ".tmp" // sockets, address files and PoP datasets
	for _, d := range []string{dir, tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(ctx, s.deadline)
	defer cancel()
	var stdout, stderr []byte
	var err error
	switch c.prog {
	case fleet:
		err = s.fleet(ctx, c, dir, tmp)
	case daemon, wire:
		stdout, err = s.daemon(ctx, c, dir, tmp, res.art)
	default:
		stdout, stderr, err = s.exec(ctx, c, dir)
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("blew its %v deadline", s.deadline)
	}
	if err != nil {
		return err
	}
	if stdout != nil {
		want := 0 // edgereport prints one wall-clock line; the daemon strips its own
		if c.prog == "edgereport" {
			want = 1
		}
		body, n := study.StripElapsed(stdout)
		if n != want {
			return fmt.Errorf("stdout held %d wall-clock lines, want %d", n, want)
		}
		res.art["stdout"] = sha256.Sum256(body)
	}
	if stderr != nil && c.prog != "segcat" {
		res.art["stderr"] = sha256.Sum256(stderr)
	}
	return collect(c, dir, res.art)
}

// exec runs a process cell; on success stdout and stderr are never nil.
func (s side) exec(ctx context.Context, c cell, dir string) (stdout, stderr []byte, err error) {
	args := make([]string, len(c.args))
	for i, a := range c.args {
		if rest, ok := strings.CutPrefix(a, "IN/"); ok {
			a = filepath.Join("..", c.in, rest)
		}
		args[i] = a
	}
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, filepath.Join(s.bins, c.prog), args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.WaitDelay = time.Second
	if err := cmd.Run(); err != nil {
		return nil, nil, failed(c.prog, err, errb.Bytes())
	}
	return append([]byte{}, out.Bytes()...), append([]byte{}, errb.Bytes()...), nil
}

// collect checks that dir holds exactly c's files and adds a digest of
// every file under it to art.
func collect(c cell, dir string, art map[string][sha256.Size]byte) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if want := c.files(); strings.Join(got, " ") != strings.Join(want, " ") {
		return fmt.Errorf("directory holds %q, want %q", got, want)
	}
	acksExempt := c.prog == fleet || c.prog == wire
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || acksExempt && d.Name() == "ACKS.json" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		art[filepath.ToSlash(rel)] = sha256.Sum256(b)
		return err
	})
}

// diff lists how got's artifacts of one kind ("" for all) differ from
// want's: missing, extra or differing.
func diff(got, want map[string][sha256.Size]byte, kind string) []string {
	of := func(k string) bool { return kind == "" || k == kind || strings.HasPrefix(k, kind+"/") }
	var d []string
	for k, h := range want {
		if !of(k) {
			continue
		}
		if g, ok := got[k]; !ok {
			d = append(d, "missing "+k)
		} else if g != h {
			d = append(d, k+" differs")
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok && of(k) {
			d = append(d, "extra "+k)
		}
	}
	sort.Strings(d)
	return d
}

// A proc is one process of a drill, reaped by its own goroutine.
type proc struct {
	name   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{}
	err    error
}

func (s side) spawn(ctx context.Context, dir, prog string, args ...string) (*proc, error) {
	p := &proc{name: prog, done: make(chan struct{})}
	p.cmd = exec.CommandContext(ctx, filepath.Join(s.bins, prog), args...)
	p.cmd.Dir = dir
	p.cmd.Stderr = &p.stderr
	p.cmd.WaitDelay = time.Second
	if err := p.cmd.Start(); err != nil {
		return nil, failed(prog, err, nil)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// wait returns once p has exited, with an error unless it exited 0.
func (p *proc) wait() error {
	<-p.done
	if p.err != nil {
		return failed(p.name, p.err, p.stderr.Bytes())
	}
	return nil
}

// stop kills and reaps every process still running.
func stop(ps []*proc) {
	for _, p := range ps {
		select {
		case <-p.done:
		default:
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
}

// await polls ready every 20ms until it holds, p exits or ctx ends.
func await(ctx context.Context, p *proc, what string, ready func() (bool, error)) error {
	for {
		if ok, err := ready(); ok || err != nil {
			return err
		}
		select {
		case <-p.done:
			if p.err == nil {
				return fmt.Errorf("%s exited before %s", p.name, what)
			}
			return failed(p.name, p.err, p.stderr.Bytes())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func exists(path string) func() (bool, error) {
	return func() (bool, error) {
		_, err := os.Stat(path)
		return err == nil, nil
	}
}

// pops starts the two edgesim PoPs of a fleet, shipping to sock.
func (s side) pops(ctx context.Context, c cell, tmp, sock string) ([]*proc, error) {
	var ps []*proc
	for i := 0; i < 2; i++ {
		args := append(append([]string{}, c.args...), "-o", filepath.Join(tmp, "pop"+strconv.Itoa(i)),
			"-pop", strconv.Itoa(i), "-pops", "2", "-merger", sock)
		p, err := s.spawn(ctx, tmp, "edgesim", args...)
		if err != nil {
			return ps, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// fleet merges two PoPs' shipments into out; every process must exit 0.
func (s side) fleet(ctx context.Context, c cell, dir, tmp string) error {
	sock := filepath.Join(tmp, "merge.sock")
	m, err := s.spawn(ctx, dir, "edgemerged", "-o", "out", "-listen", sock, "-expect-pops", "2")
	if err != nil {
		return err
	}
	ps := []*proc{m}
	defer func() { stop(ps) }()
	if err := await(ctx, m, "listening", exists(sock)); err != nil {
		return err
	}
	pops, err := s.pops(ctx, c, tmp, sock)
	ps = append(ps, pops...)
	if err != nil {
		return err
	}
	for _, p := range append(pops, m) {
		if err := p.wait(); err != nil {
			return err
		}
	}
	return nil
}

// daemon runs edgestudyd into out until it reports drained, reads
// /report, then the cell's queries at once into art, interrupts it and
// requires a clean exit. In wire mode two PoPs feed it first.
func (s side) daemon(ctx context.Context, c cell, dir, tmp string, art map[string][sha256.Size]byte) ([]byte, error) {
	addrFile := filepath.Join(tmp, "addr")
	sock := filepath.Join(tmp, "wire.sock")
	args := []string{"-o", "out", "-http", "127.0.0.1:0", "-addr-file", addrFile}
	if c.prog == wire {
		args = append(args, "-listen", sock, "-expect-pops", "2")
	} else {
		args = append(args, c.args...)
	}
	d, err := s.spawn(ctx, dir, "edgestudyd", args...)
	if err != nil {
		return nil, err
	}
	ps := []*proc{d}
	defer func() { stop(ps) }()
	if c.prog == wire {
		if err := await(ctx, d, "listening", exists(sock)); err != nil {
			return nil, err
		}
		pops, err := s.pops(ctx, c, tmp, sock)
		ps = append(ps, pops...)
		if err != nil {
			return nil, err
		}
		for _, p := range pops {
			if err := p.wait(); err != nil {
				return nil, err
			}
		}
	}
	var base string
	if err := await(ctx, d, "serving", func() (bool, error) {
		b, _ := os.ReadFile(addrFile) // absent until the daemon listens
		base = "http://" + strings.TrimSpace(string(b))
		return bytes.HasSuffix(b, []byte("\n")), nil
	}); err != nil {
		return nil, err
	}
	if err := await(ctx, d, "draining", func() (bool, error) {
		var h struct{ State string }
		b, err := get(ctx, base+"/healthz")
		if err == nil {
			err = json.Unmarshal(b, &h)
		}
		return h.State == "drained", err
	}); err != nil {
		return nil, err
	}
	report, err := get(ctx, base+"/report")
	if err != nil {
		return nil, err
	}
	if err := getAtOnce(ctx, base, c.queries, art); err != nil {
		return nil, err
	}
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		return nil, err
	}
	if err := d.wait(); err != nil {
		return nil, fmt.Errorf("after SIGINT: %w", err)
	}
	return report, nil
}

// getAtOnce sends a /report GET for every query at once and files each
// body, less its wall-clock line, in art as "report?" + query. Every
// one must answer 200: a daemon admits one cold filtered fold at a time
// and queues a few more behind it.
func getAtOnce(ctx context.Context, base string, queries []string, art map[string][sha256.Size]byte) error {
	bodies, errs := make([][]byte, len(queries)), make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i], errs[i] = get(ctx, base+"/report?"+q)
		}()
	}
	wg.Wait()
	for i, q := range queries {
		if errs[i] != nil {
			return errs[i]
		}
		body, n := study.StripElapsed(bodies[i])
		if n != 0 {
			return fmt.Errorf("/report?%s held %d wall-clock lines, want 0", q, n)
		}
		art["report?"+q] = sha256.Sum256(body)
	}
	return nil
}

// get reads url's body, failing on anything but 200.
func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, err
}

// errCannotRun marks a producer that cannot run a cell at all: its
// tree has no such command, or the command rejects one of the flags.
var errCannotRun = errors.New("cannot run")

// failed describes a process that did not exit 0 by the line of its
// stderr that says why: the flag it rejected (the flag package prints
// usage after it), else its last line (log.Fatal's message, the race
// detector's count).
func failed(prog string, err error, stderr []byte) error {
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%s: %w: not built from this tree", prog, errCannotRun)
	}
	lines := strings.Split(strings.TrimSpace(string(stderr)), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "flag provided but not defined") {
			return fmt.Errorf("%s: %w: %s", prog, errCannotRun, l)
		}
	}
	return fmt.Errorf("%s: %v: %s", prog, err, lines[len(lines)-1])
}
