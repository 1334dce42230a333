package studyd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/study"
)

// reportQuery is one parsed, canonicalized /report query. Two query
// strings asking for the same slice canonicalize to the same Key, so
// the cache never stores the same report twice.
type reportQuery struct {
	From, To  time.Duration
	Countries []string
	PoPs      []string
	Filter    *segstore.Filter
}

// Key is the canonical cache key for the query.
func (q reportQuery) Key() string {
	return fmt.Sprintf("report|from=%s|to=%s|country=%s|pop=%s",
		q.From, q.To, strings.Join(q.Countries, ","), strings.Join(q.PoPs, ","))
}

// parseReportQuery parses /report's query parameters: from and to as
// Go durations bounding the session-start offset (half-open), country
// and pop as comma-separated whitelists. Unknown parameters are
// ignored; malformed values are an error, never a panic — the fuzz
// target FuzzStudydQueryParams pins that.
func parseReportQuery(vals url.Values) (reportQuery, error) {
	var q reportQuery
	if v := vals.Get("from"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return q, fmt.Errorf("bad from=%q: %v", v, err)
		}
		if d < 0 {
			return q, fmt.Errorf("bad from=%q: negative offset", v)
		}
		q.From = d
	}
	if v := vals.Get("to"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return q, fmt.Errorf("bad to=%q: %v", v, err)
		}
		if d < 0 {
			return q, fmt.Errorf("bad to=%q: negative offset", v)
		}
		q.To = d
	}
	f, err := segstore.ParseFilter(q.From, q.To, vals.Get("country"), vals.Get("pop"))
	if err != nil {
		return q, err
	}
	q.Filter = f
	if f != nil {
		q.Countries = f.Countries
		q.PoPs = f.PoPs
	}
	return q, nil
}

// Handler returns the daemon's HTTP surface: /report (cached report
// over the spool), /groups (per-group spool rollup), /windows
// (per-window ingest health), /healthz (liveness + drain state), and
// the obs mounts (/metrics, /debug/vars, /debug/pprof) when a
// registry is attached.
func (d *Daemon) Handler() http.Handler {
	var mux *http.ServeMux
	if d.opt.Reg != nil {
		mux = d.opt.Reg.NewServeMux()
	} else {
		mux = http.NewServeMux()
	}
	mux.HandleFunc("/report", d.handleReport)
	mux.HandleFunc("/groups", d.handleGroups)
	mux.HandleFunc("/windows", d.handleWindows)
	mux.HandleFunc("/healthz", d.handleHealthz)
	return mux
}

// cacheControl tells a client's cache what the daemon's own does: a
// report is revalidated on every use, and may be served stale for a
// minute while that happens.
const cacheControl = "max-age=0, stale-while-revalidate=60"

// handleReport serves the aggregated study report for the spool's
// current contents, through the stale-while-revalidate cache. The
// body is exactly the batch `edgereport` output for the same dataset
// minus the elapsed-time line (the one line that may not be
// deterministic), so a drained daemon's /report is byte-identical to
// the golden batch report. Every response names its body with a strong
// ETag (cache.go: entityTag); a request whose If-None-Match names it
// too gets a 304 and no body.
func (d *Daemon) handleReport(w http.ResponseWriter, r *http.Request) {
	q, err := parseReportQuery(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	head := d.head.Load()
	body, etag, state, err := d.cache.Serve(q.Key(), head.version, func() ([]byte, error) {
		body, err := d.renderReport(q, head.version)
		if err == nil {
			d.servedFresh(head)
		}
		return body, err
	})
	if errors.Is(err, errFoldsBusy) {
		w.Header().Set("Retry-After", foldRetryAfter)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("X-Cache", state)
	h.Set("ETag", etag)
	h.Set("Cache-Control", cacheControl)
	if noneMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	_, _ = w.Write(body)
}

// noneMatch reports whether an If-None-Match header value names etag:
// "*", or a comma-separated list holding it. The comparison is the weak
// one RFC 9110 §13.1.2 asks of this header, so a W/ prefix is ignored.
func noneMatch(header, etag string) bool {
	for header != "" {
		var tag string
		tag, header, _ = strings.Cut(header, ",")
		tag = strings.TrimPrefix(strings.TrimSpace(tag), "W/")
		if tag == etag || tag == "*" {
			return true
		}
	}
	return false
}

// foldQueue is how many cold filtered reports may wait while one folds.
// A request past them is refused with a 503 at once, so the daemon holds
// the resident study, one fold and the cache, whatever the clients ask
// (DESIGN.md §15). A request for a key already being computed joins that
// computation through the cache and takes no place here.
const foldQueue = 4

// foldRetryAfter is a refused request's Retry-After, in seconds, so that
// a refused client does not come straight back to the same full queue.
const foldRetryAfter = "2"

// errFoldsBusy refuses a cold filtered fold while one runs and
// foldQueue more wait. Like every compute error it is not cached.
var errFoldsBusy = errors.New("a filtered report is being folded and others wait; retry later")

// admitFold waits for the one fold slot and returns its release, or
// errFoldsBusy at once when foldQueue requests already wait: a waiting
// request holds one of foldQueue tickets until it takes the slot
// (studyd_fold_queue_depth counts the tickets held,
// studyd_fold_rejected_total the refusals).
func (d *Daemon) admitFold() (release func(), err error) {
	select {
	case d.foldTickets <- struct{}{}:
	default:
		d.cFoldRejected.Inc()
		return nil, errFoldsBusy
	}
	d.gFoldQueue.Add(1)
	d.foldSlot <- struct{}{}
	<-d.foldTickets
	d.gFoldQueue.Add(-1)
	return func() { <-d.foldSlot }, nil
}

// renderReport renders the report body for q over the spool, whose
// version was read as version before the call. A filtered query folds
// the spool from nothing, at GOMAXPROCS workers, one such fold at a time
// (admitFold), and never touches the resident study
// (studyd_folds_inflight counts those folds running); the
// unfiltered one advances it — folding only what the spool has gained
// since the last report and comparing only the windows that closed,
// when the manifest allows (study.Segments) — and analyses and renders it
// under its lock, because the results alias its state. The cache runs at
// most one revalidation a key, so the lock is there for the invariant,
// not for contention.
func (d *Daemon) renderReport(q reportQuery, version int64) ([]byte, error) {
	if q.Filter != nil {
		release, err := d.admitFold()
		if err != nil {
			return nil, err
		}
		defer release()
		d.gFolds.Add(1)
		res, err := study.FromSegments(context.Background(), d.opt.Dir, study.Options{Filter: q.Filter})
		d.gFolds.Add(-1)
		if err != nil {
			return nil, err
		}
		return reportBody(res), nil
	}

	d.residentMu.Lock()
	defer d.residentMu.Unlock()
	start := time.Now()
	res, rebuilt, err := d.resident.Advance(context.Background())
	if err != nil {
		return nil, err
	}
	body := reportBody(res)
	if rebuilt == "" {
		d.hExtend.ObserveDuration(time.Since(start))
	} else {
		d.hRebuild.ObserveDuration(time.Since(start))
		d.opt.Reg.Counter(obs.L("studyd_fold_rebuilds_total", "reason", rebuilt)).Inc()
	}
	d.gServed.Set(float64(version))
	d.gFoldSegs.Set(float64(d.resident.Folded()))
	d.gCells.Set(float64(res.Store.Cells()))
	d.gCompared.Set(float64(res.DegMinRTT.Compared + res.DegHD.Compared +
		res.OppMinRTT.Compared + res.OppHD.Compared + res.Fig10.Compared))
	return body, nil
}

// reportBody renders res without its wall-clock line, so responses are
// pure functions of the spool contents.
func reportBody(res *study.Results) []byte {
	var buf bytes.Buffer
	res.WriteReport(&buf)
	body, _ := study.StripElapsed(buf.Bytes())
	return body
}

// groupInfo is one world group's spool rollup, served by /groups.
type groupInfo struct {
	Group      int      `json:"group"`
	Segments   int      `json:"segments"`
	Samples    int      `json:"samples"`
	Bytes      int64    `json:"bytes"`
	Tombstones int      `json:"tombstones,omitempty"`
	Lost       int      `json:"lost,omitempty"`
	Countries  []string `json:"countries,omitempty"`
	PoPs       []string `json:"pops,omitempty"`
}

// handleGroups rolls the spool manifest up by world group.
func (d *Daemon) handleGroups(w http.ResponseWriter, r *http.Request) {
	man, err := segstore.LoadManifest(d.opt.Dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	cpg := d.cpg
	if cpg <= 0 {
		cpg = seggen.OriginChunksPerGroup(man.Origin) // wire mode: no world config
	}
	byGroup := map[int]*groupInfo{}
	get := func(id int) *groupInfo {
		gi := id / cpg
		g := byGroup[gi]
		if g == nil {
			g = &groupInfo{Group: gi}
			byGroup[gi] = g
		}
		return g
	}
	for _, seg := range man.Segments {
		g := get(seg.ID)
		g.Segments++
		g.Samples += seg.Samples
		g.Bytes += seg.Bytes
		g.Countries = mergeSorted(g.Countries, seg.Countries)
		g.PoPs = mergeSorted(g.PoPs, seg.PoPs)
	}
	for _, t := range man.Tombstones {
		g := get(t.ID)
		g.Tombstones++
		g.Lost += t.SamplesLost
	}
	groups := make([]*groupInfo, 0, len(byGroup))
	for _, g := range byGroup {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Group < groups[j].Group })
	writeJSON(w, map[string]any{
		"origin": man.Origin,
		"groups": groups,
	})
}

// handleWindows serves the per-window ingest ledger: how many samples
// each logical window received, lost to outages, or refused late, and
// whether it is sealed.
func (d *Daemon) handleWindows(w http.ResponseWriter, r *http.Request) {
	mark := d.Watermark()
	limit := mark
	// By default only sealed (final) windows are listed; all=1 includes
	// the open remainder.
	if r.URL.Query().Get("all") != "" {
		limit = len(d.winStats)
	}
	d.mu.Lock()
	stats := make([]windowStat, 0, limit)
	for i := 0; i < limit && i < len(d.winStats); i++ {
		stats = append(stats, d.winStats[i])
	}
	d.mu.Unlock()
	writeJSON(w, map[string]any{
		"watermark": mark,
		"windows":   stats,
	})
}

// handleHealthz reports liveness and drain state.
func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := "ingesting"
	if d.Drained() {
		state = "drained"
	}
	cov := d.Coverage()
	degraded := cov != nil && cov.Degraded()
	writeJSON(w, map[string]any{
		"state":     state,
		"watermark": d.Watermark(),
		"version":   d.Version(),
		"degraded":  degraded,
		"ingested":  d.cIngested.Value(),
		"late":      d.cLate.Value(),
	})
}

// mergeSorted folds add into base keeping it sorted and deduplicated.
func mergeSorted(base, add []string) []string {
	for _, v := range add {
		i := sort.SearchStrings(base, v)
		if i < len(base) && base[i] == v {
			continue
		}
		base = append(base, "")
		copy(base[i+1:], base[i:])
		base[i] = v
	}
	return base
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
