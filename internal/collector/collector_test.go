package collector

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/obs"
	"repro/internal/sample"
)

func TestFiltersHosting(t *testing.T) {
	var got []sample.Sample
	c := New(FuncSink(func(s sample.Sample) { got = append(got, s) }))
	c.Offer(sample.Sample{SessionID: 1})
	c.Offer(sample.Sample{SessionID: 2, HostingProvider: true})
	c.Offer(sample.Sample{SessionID: 3})
	if len(got) != 2 {
		t.Fatalf("accepted %d samples, want 2", len(got))
	}
	st := c.Stats()
	if st.Received != 3 || st.FilteredHosting != 1 || st.Accepted != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFanOut(t *testing.T) {
	a, b := 0, 0
	c := New(FuncSink(func(sample.Sample) { a++ }))
	c.AddSink(FuncSink(func(sample.Sample) { b++ }))
	c.Offer(sample.Sample{})
	c.Offer(sample.Sample{})
	if a != 2 || b != 2 {
		t.Errorf("fan-out counts a=%d b=%d", a, b)
	}
}

func TestStoreSink(t *testing.T) {
	st := agg.NewStore()
	c := New(StoreSink(st))
	c.Offer(sample.Sample{PoP: "ams", Prefix: "10.0.0.0/24", Country: "DE", Bytes: 10})
	if st.TotalSamples != 1 {
		t.Errorf("store got %d samples", st.TotalSamples)
	}
}

// A sample.Writer's Write is a Sink as it stands.
func TestWriterSink(t *testing.T) {
	var buf bytes.Buffer
	w := sample.NewWriter(&buf)
	c := New(w.Write)
	c.Offer(sample.Sample{SessionID: 42})
	out, err := sample.NewReader(&buf).ReadAll()
	if err != nil || len(out) != 1 || out[0].SessionID != 42 {
		t.Errorf("writer sink round trip failed: %v %v", out, err)
	}
}

// TestSinkErrorPoisonsPipeline checks the first-error semantics: after
// a sink fails, no sink sees further samples, the error is surfaced via
// Err, and drops are accounted in Stats and the obs counters.
func TestSinkErrorPoisonsPipeline(t *testing.T) {
	boom := errors.New("disk full")
	calls, after := 0, 0
	c := New(
		func(sample.Sample) error {
			calls++
			if calls == 2 {
				return boom
			}
			return nil
		},
		FuncSink(func(sample.Sample) { after++ }),
	)
	reg := obs.NewRegistry()
	c.Instrument(reg)

	for i := 0; i < 5; i++ {
		c.Offer(sample.Sample{SessionID: uint64(i)})
	}
	if !errors.Is(c.Err(), boom) {
		t.Fatalf("Err() = %v, want %v", c.Err(), boom)
	}
	if calls != 2 {
		t.Errorf("failed sink saw %d samples after error, want 2", calls)
	}
	// The second sink saw only the sample before the failure; the
	// failing offer stopped mid-fan-out and later offers were dropped.
	if after != 1 {
		t.Errorf("downstream sink saw %d samples, want 1", after)
	}
	st := c.Stats()
	if st.Received != 5 || st.SinkErrors != 1 || st.DroppedAfterError != 3 {
		t.Errorf("stats = %+v", st)
	}
	if got := reg.Counter("collector_sink_errors_total").Value(); got != 1 {
		t.Errorf("sink error counter = %d, want 1", got)
	}
	if got := reg.Counter("collector_dropped_after_error_total").Value(); got != 3 {
		t.Errorf("dropped counter = %d, want 3", got)
	}
}

// TestWriterSinkErrorStopsWrites drives the poisoning end to end
// through a failing writer.
func TestWriterSinkErrorStopsWrites(t *testing.T) {
	fw := &failAfter{n: 2}
	w := sample.NewWriter(fw)
	c := New(w.Write)
	for i := 0; i < 10; i++ {
		c.Offer(sample.Sample{SessionID: uint64(i)})
	}
	if c.Err() == nil {
		t.Fatal("expected a write error to surface")
	}
	if fw.writes > 3 {
		t.Errorf("writer saw %d writes after failing, want no more than 3", fw.writes)
	}
}

type failAfter struct {
	n      int
	writes int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errors.New("write failed")
	}
	return len(p), nil
}

// TestSinkErrorAttribution checks the error-context satellite: a sink
// failure must carry which sink, sample, group, and window broke, while
// errors.Is still reaches the original cause.
func TestSinkErrorAttribution(t *testing.T) {
	boom := errors.New("disk full")
	c := New(
		FuncSink(func(sample.Sample) {}),
		func(sample.Sample) error { return boom },
	)
	s := sample.Sample{
		SessionID: 9001,
		PoP:       "fra",
		Prefix:    "10.1.0.0/24",
		Country:   "DE",
		Start:     3 * agg.WindowDuration,
	}
	c.Offer(s)
	err := c.Err()
	if !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, does not wrap %v", err, boom)
	}
	msg := err.Error()
	for _, want := range []string{"sink 1", "sample 9001", "fra/10.1.0.0/24/DE", "window 3"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Err() = %q, missing %q", msg, want)
		}
	}
}
