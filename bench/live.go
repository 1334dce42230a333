package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/internal/studyd"
	"repro/internal/world"
)

// hitsPerCommit is how many cached reads follow every fresh report.
const hitsPerCommit = 200

// pollEvery is how often the driver asks again while the daemon
// re-aggregates behind a stale report.
const pollEvery = 200 * time.Microsecond

// response is the least http.ResponseWriter the daemon's handler
// needs; the driver calls ServeHTTP directly, so no socket, no server
// goroutine and no client library sit between the timer and the cache.
type response struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (r *response) Header() http.Header { return r.hdr }
func (r *response) WriteHeader(c int)   { r.code = c }
func (r *response) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

// get serves one request on h and returns the X-Cache state; anything
// but a 200 is an error.
func get(h http.Handler, req *http.Request, resp *response) (string, error) {
	resp.hdr, resp.code = http.Header{}, 0
	resp.body.Reset()
	h.ServeHTTP(resp, req)
	if resp.code != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d: %s", req.URL, resp.code, bytes.TrimSpace(resp.body.Bytes()))
	}
	return resp.hdr.Get("X-Cache"), nil
}

func newGet(url string) *http.Request {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		panic(err) // the URLs are the benchmark's own constants
	}
	return req
}

var errStopRound = errors.New("round stopped at its day limit")

// liveRound is what one pass of a live-mode daemon over a world gave.
type liveRound struct {
	opNs      []float64 // per day: first sample ingested to report fresh again, at the reference speed
	wallNs    []float64 // the same as the clock read it
	commitNs  []float64 // per day: the seal that closed the chunk
	freshNs   []float64 // per day: seal returned to report fresh
	freshPerK []float64 // freshNs in us per thousand samples then in the spool
	staleNs   []float64 // first read after a commit, served stale
	hitNs     []float64
	samples   int // delivered to Ingest
	hits      int
	stales    int
	misses    int
	failed    int // days whose reads failed, plus one if the final check failed
	err       error
}

// liveServe runs one round of live_serve: a live-mode daemon ingests
// w window by window on this goroutine; every seal that commits a
// chunk (one a day) is followed by a read that finds the cache stale,
// polling until the report is fresh, then hitsPerCommit cached reads.
// An operation is one day, from its first sample to the moment a
// reader gets that day in the report; the cached reads after that are
// excluded. At the end the spool and the final report are held to the
// batch reference. A positive maxDays stops the round after that many
// days, unchecked — the warm-up, and the short rounds tracing overhead
// is measured on. rec and cal may be nil; cal reads the machine's speed
// at every day boundary, outside the operations.
func liveServe(rec *recorder, cal *calibrator, op int, c *corpus, wantReport []byte, spool string, maxDays int) (liveRound, *studyd.Daemon) {
	var r liveRound
	root := rec.start(noSpan, op, "bench.live_serve")
	defer func() { root.end(r.samples) }()
	fail := func(err error) (liveRound, *studyd.Daemon) {
		r.failed++
		r.err = err
		return r, nil
	}

	w := world.New(c.cfg)
	d, err := studyd.New(studyd.Options{Dir: spool, Origin: c.origin, World: w})
	if err != nil {
		return fail(err)
	}
	h := d.Handler()
	req, resp := newGet("/report"), new(response)

	feed := rec.start(root, op, "world.live_feed")
	speedBefore := cal.slowdown()
	dayStart := time.Now()
	spoolSamples := 0 // delivered so far: what the spool holds after the latest commit
	// afterCommit makes the reads that follow a commit and returns the
	// moment the report was fresh again.
	afterCommit := func(sealed time.Time) (fresh time.Time, err error) {
		// The first read: stale bytes at once (or, on the very first day,
		// a blocking miss), never a wait for the fold.
		reval := rec.start(feed, op, "studyd.revalidate")
		sp := rec.start(reval, op, "studyd.report_first")
		state, err := get(h, req, resp)
		first := time.Since(sealed)
		sp.end(resp.body.Len())
		if state == "stale" {
			r.stales++
			r.staleNs = append(r.staleNs, float64(first))
		}
		for err == nil && state == "stale" {
			time.Sleep(pollEvery)
			state, err = get(h, req, resp)
		}
		fresh = time.Now()
		reval.end(r.samples - spoolSamples)
		if err != nil {
			return fresh, err
		}
		if state == "miss" {
			r.misses++
		} else {
			r.hits++
		}
		spoolSamples = r.samples
		r.freshNs = append(r.freshNs, float64(fresh.Sub(sealed)))
		r.freshPerK = append(r.freshPerK, float64(fresh.Sub(sealed))/1e3/(float64(spoolSamples)/1e3))

		for i := 0; i < hitsPerCommit; i++ {
			sp := rec.start(feed, op, "studyd.report_hit")
			t := time.Now()
			state, err := get(h, req, resp)
			r.hitNs = append(r.hitNs, float64(time.Since(t)))
			sp.end(resp.body.Len())
			if err != nil || state != "hit" {
				return fresh, fmt.Errorf("cached read %d after a fresh report: state %q: %v", i, state, err)
			}
			r.hits++
		}
		return fresh, nil
	}
	days := 0
	err = world.NewLiveFeed(w).Run(context.Background(), 1, func(b world.WindowBatch) error {
		sp := rec.start(feed, op, "studyd.ingest")
		err := d.Ingest(b.Group, b.Win, b.Samples, b.Lost)
		sp.end(len(b.Samples))
		r.samples += len(b.Samples)
		return err
	}, func(win int) error {
		before, t0 := d.Version(), time.Now()
		if err := d.Seal(win); err != nil {
			return err
		}
		if d.Version() == before {
			rec.since(feed, op, "studyd.seal_noop", t0, 1)
			return nil
		}
		sealed := time.Now()
		rec.since(feed, op, "studyd.seal_commit", t0, 1)
		r.commitNs = append(r.commitNs, float64(sealed.Sub(t0)))

		wall, err := afterCommit(sealed)
		speedAfter := cal.slowdown()
		if err != nil {
			r.failed++ // the day is a failed operation; the round goes on
			if r.err == nil {
				r.err = err
			}
		} else {
			r.wallNs = append(r.wallNs, float64(wall.Sub(dayStart)))
			r.opNs = append(r.opNs, float64(wall.Sub(dayStart))/((speedBefore+speedAfter)/2))
		}
		speedBefore = speedAfter
		if days++; days == maxDays {
			return errStopRound
		}
		dayStart = time.Now()
		return nil
	})
	feed.end(r.samples)
	if errors.Is(err, errStopRound) {
		return r, nil
	}
	if err == nil {
		err = d.Drain()
	}
	if err != nil {
		return fail(err)
	}

	if _, err := get(h, req, resp); err != nil {
		return fail(err)
	}
	r.hits++
	if err := checkReport(resp.body.Bytes(), wantReport); err != nil {
		return fail(err)
	}
	if err := sameDataset(spool, c.dir); err != nil {
		return fail(err)
	}
	return r, d
}

// liveProbes are the reads a round does not make: measured on the
// drained daemon of a finished round.
type liveProbes struct {
	coldNs    []float64 // never-seen keys, each a full fold of the spool
	groupsNs  float64
	windowsNs float64
	hitAllocs float64
}

func probeDaemon(d *studyd.Daemon, c *corpus, colds int) (liveProbes, error) {
	var p liveProbes
	h, resp := d.Handler(), new(response)
	timed := func(url string) (float64, error) {
		req := newGet(url)
		t := time.Now()
		_, err := get(h, req, resp)
		return float64(time.Since(t)), err
	}
	for i := 0; i < colds; i++ {
		// A window that ends after the dataset does selects all of it,
		// under a key the cache has never seen.
		to := time.Duration(c.cfg.Days)*24*time.Hour + time.Duration(i+1)*time.Hour
		ns, err := timed("/report?to=" + to.String())
		if err != nil {
			return p, err
		}
		p.coldNs = append(p.coldNs, ns)
	}
	var err error
	if p.groupsNs, err = timed("/groups"); err != nil {
		return p, err
	}
	if p.windowsNs, err = timed("/windows"); err != nil {
		return p, err
	}

	const reads = 100
	req := newGet("/report")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if state, err := get(h, req, resp); err != nil || state != "hit" {
			return p, fmt.Errorf("cached read: state %q: %v", state, err)
		}
	}
	runtime.ReadMemStats(&after)
	p.hitAllocs = float64(after.Mallocs-before.Mallocs) / reads
	return p, nil
}
