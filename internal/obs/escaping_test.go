package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// The exposition must declare the Prometheus text content type, and
// label values containing quotes, backslashes, or newlines must be
// escaped so a hostile value cannot break line syntax or smuggle in a
// fake series.
func TestExpositionContentTypeAndEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(L("paths_total", "path", `C:\data\"edge"`)).Add(1)
	reg.Counter(L("keys_total", "key", "line1\nline2")).Add(2)

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", got)
	}
	body := rec.Body.String()
	if want := `paths_total{path="C:\\data\\\"edge\""} 1`; !strings.Contains(body, want) {
		t.Errorf("exposition missing escaped series %q:\n%s", want, body)
	}
	if want := `keys_total{key="line1\nline2"} 2`; !strings.Contains(body, want) {
		t.Errorf("exposition missing newline-escaped series %q:\n%s", want, body)
	}
	// No raw newline may survive inside any series line: every line must
	// be "# ..." or "name value".
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if line == "" {
			t.Errorf("exposition contains an empty line (broken by a raw newline):\n%s", body)
		}
	}
	if strings.Contains(body, "line2\"") && !strings.Contains(body, `line1\nline2`) {
		t.Errorf("label value leaked a raw newline:\n%s", body)
	}
}

// An exemplar recorded via ObserveExemplar must render on the +Inf
// bucket line, OpenMetrics style, carrying the trace event ID.
func TestHistogramExemplarRendering(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("feed_batch", []float64{10, 100})
	h.ObserveExemplar(7, 0x00ab)   // small value
	h.ObserveExemplar(250, 0xbeef) // the max: this one is kept
	h.ObserveExemplar(50, 0x1234)
	h.Observe(500) // no trace ID: never displaces the exemplar

	ex, ok := h.Exemplar()
	if !ok || ex.TraceID != 0xbeef || ex.Value != 250 {
		t.Fatalf("Exemplar() = %+v, %v; want value 250 id beef", ex, ok)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `feed_batch_bucket{le="+Inf"} 4 # {trace_id="000000000000beef"} 250`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing exemplar line %q:\n%s", want, b.String())
	}
	// Zero trace ID (tracing disabled) must degrade to plain Observe.
	h2 := reg.Histogram("quiet", []float64{1})
	h2.ObserveExemplar(5, 0)
	if _, ok := h2.Exemplar(); ok {
		t.Error("zero trace ID recorded an exemplar")
	}
}

// Concurrent get-or-create of the same metric names must be safe and
// must hand every goroutine the same underlying instance (run under
// -race in `make check`).
func TestConcurrentRegistration(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	var wg sync.WaitGroup
	counters := make([]*Counter, goroutines)
	gauges := make([]*Gauge, goroutines)
	hists := make([]*Histogram, goroutines)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg.Counter(L("shared_total", "k", "v")).Inc()
				reg.Gauge("shared_gauge").Add(1)
				reg.Histogram("shared_hist", []float64{1, 2}).Observe(1.5)
				reg.Digest("shared_digest").Observe(float64(j))
				reg.Span(fmt.Sprintf("span_%d", j%4), "root").Time(func() {})
			}
			counters[i] = reg.Counter(L("shared_total", "k", "v"))
			gauges[i] = reg.Gauge("shared_gauge")
			hists[i] = reg.Histogram("shared_hist", nil)
		}()
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if counters[i] != counters[0] || gauges[i] != gauges[0] || hists[i] != hists[0] {
			t.Fatalf("goroutine %d received a different metric instance", i)
		}
	}
	if got := reg.Counter(L("shared_total", "k", "v")).Value(); got != goroutines*100 {
		t.Errorf("shared counter = %d, want %d", got, goroutines*100)
	}
	if got := reg.Histogram("shared_hist", nil).Count(); got != goroutines*100 {
		t.Errorf("shared histogram count = %d, want %d", got, goroutines*100)
	}
}

// While a segment scan runs, the progress line projects an ETA from the
// tick's read rate against what the scan will read (dataset bytes less
// what the filter pruned); without a scan (or once done) it stays
// silent.
func TestProgressETA(t *testing.T) {
	reg := NewRegistry()
	if idle := reg.progressLine(nil, time.Second, false); strings.Contains(idle, "eta=") {
		t.Errorf("no scan, yet an eta: %q", idle)
	}
	reg.Gauge("segstore_bytes_total").Set(1400)
	reg.Gauge("segstore_bytes_pruned").Set(400)
	c := reg.Counter("segstore_bytes_read_total")
	c.Add(250)
	prev := map[string]int64{"segstore_bytes_read_total": 0}
	line := reg.progressLine(prev, time.Second, false)
	// 250 B/s against 750 unpruned bytes remaining → 3s.
	if !strings.Contains(line, "eta=3s") {
		t.Errorf("progress line missing eta: %q", line)
	}
	if final := reg.progressLine(prev, time.Second, true); strings.Contains(final, "eta=") {
		t.Errorf("final line must not carry an eta: %q", final)
	}
	c.Add(750) // goal reached
	if done := reg.progressLine(map[string]int64{"segstore_bytes_read_total": 250}, time.Second, false); strings.Contains(done, "eta=") {
		t.Errorf("completed read still projects an eta: %q", done)
	}
}
