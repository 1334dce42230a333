package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"
)

// spanRec is one recorded interval at a layer boundary. Spans of one
// operation share Op; Parent is the span that caused this one (-1 for
// the operation's root). Count carries the work done inside, recorded
// at the same boundary, so ratios divide by what the layer really saw.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int64  `json:"count,omitempty"`
	Mallocs uint64 `json:"mallocs,omitempty"`
	Bytes   uint64 `json:"alloc_bytes,omitempty"`
}

// recorder keeps spans in memory and writes them out when the run
// ends, never during it. With allocs set, every span boundary also
// reads the allocator's counters (a stop-the-world read: such a pass
// gives counts, not times).
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []spanRec
	allocs bool
	ms     runtime.MemStats
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span is a handle on an open span. noSpan is both "no parent" and
// what a nil recorder hands out.
type span struct {
	r  *recorder
	id int
}

var noSpan = span{id: -1}

// start opens a span. A nil recorder records nothing and hands back a
// handle whose end does nothing, which is how the untraced runs share
// the code of the traced ones where a workload can only be observed,
// not taken apart.
func (r *recorder) start(parent span, op int, name string) span {
	if r == nil {
		return noSpan
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	pid := -1
	if parent.r != nil {
		pid = parent.id
	}
	s := spanRec{ID: len(r.spans), Parent: pid, Op: op, Name: name, EndNs: -1}
	if r.allocs {
		runtime.ReadMemStats(&r.ms)
		s.Mallocs, s.Bytes = r.ms.Mallocs, r.ms.TotalAlloc
	}
	r.spans = append(r.spans, s)
	r.spans[s.ID].StartNs = int64(time.Since(r.t0))
	return span{r: r, id: s.ID}
}

// since records a span that began at t0 and ends now, for intervals
// the benchmark can only see the end of (one acknowledgement to the
// next).
func (r *recorder) since(parent span, op int, name string, t0 time.Time, count int) {
	if r == nil {
		return
	}
	s := r.start(parent, op, name)
	r.mu.Lock()
	r.spans[s.id].StartNs = int64(t0.Sub(r.t0))
	r.mu.Unlock()
	s.end(count)
}

// end closes the span, recording count units of work done inside it.
func (s span) end(count int) {
	if s.r == nil {
		return
	}
	now := int64(time.Since(s.r.t0))
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	rec := &s.r.spans[s.id]
	rec.EndNs = now
	rec.Count = int64(count)
	if s.r.allocs {
		runtime.ReadMemStats(&s.r.ms)
		rec.Mallocs = s.r.ms.Mallocs - rec.Mallocs
		rec.Bytes = s.r.ms.TotalAlloc - rec.Bytes
	}
}

// layerTotals is what one span name added up to inside one operation.
type layerTotals struct {
	n       int
	selfNs  int64
	durNs   int64
	mallocs int64 // self: the span's own minus its children's
	durs    []float64
}

// totals folds the spans of operation op by name. A span's self time
// is its duration minus the part its child spans cover; children of
// one parent never overlap in the decomposed (single-goroutine) runs
// this is used on.
func (r *recorder) totals(op int) map[string]*layerTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	childNs := map[int]int64{}
	childMallocs := map[int]uint64{}
	for _, s := range r.spans {
		if s.Op == op && s.Parent >= 0 {
			childNs[s.Parent] += s.EndNs - s.StartNs
			childMallocs[s.Parent] += s.Mallocs
		}
	}
	out := map[string]*layerTotals{}
	for _, s := range r.spans {
		if s.Op != op {
			continue
		}
		t := out[s.Name]
		if t == nil {
			t = &layerTotals{}
			out[s.Name] = t
		}
		d := s.EndNs - s.StartNs
		t.n++
		t.durNs += d
		t.selfNs += d - childNs[s.ID]
		t.mallocs += int64(s.Mallocs) - int64(childMallocs[s.ID])
		t.durs = append(t.durs, float64(d))
	}
	return out
}

// checkSpans reports the first span that is still open, has a parent that
// does not exist or belongs to another operation, or runs backwards.
func checkSpans(spans []spanRec) error {
	for i, s := range spans {
		switch {
		case s.ID != i:
			return fmt.Errorf("span %d carries id %d", i, s.ID)
		case s.EndNs < s.StartNs:
			return fmt.Errorf("span %d (%s) never closed", i, s.Name)
		case s.Parent >= len(spans) || s.Parent < -1:
			return fmt.Errorf("span %d (%s) has unknown parent %d", i, s.Name, s.Parent)
		case s.Parent >= 0 && spans[s.Parent].Op != s.Op:
			return fmt.Errorf("span %d (%s) of op %d is parented to op %d", i, s.Name, s.Op, spans[s.Parent].Op)
		case s.Parent == -1 && !strings.HasPrefix(s.Name, "bench."):
			return fmt.Errorf("span %d (%s) has no parent and is not an operation root", i, s.Name)
		}
	}
	return nil
}

// writeFile dumps every span as one JSON document.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []spanRec `json:"spans"`
	}{r.spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, data, 0o666)
}
