package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// StartProgress launches a goroutine that prints one progress line per
// interval to w: every counter with its rate since the previous tick,
// and every span stage with its accumulated wall time. The returned
// stop function prints a final line and waits for the goroutine to
// exit; it is safe to call once. With a nil registry or non-positive
// interval, StartProgress is a no-op.
func StartProgress(reg *Registry, w io.Writer, interval time.Duration) (stop func()) {
	if reg == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		prev := reg.counterValues()
		last := time.Now()
		for {
			select {
			case <-done:
				fmt.Fprintln(w, reg.progressLine(prev, time.Since(last), true))
				return
			case now := <-tick.C:
				cur := reg.counterValues()
				fmt.Fprintln(w, reg.progressLine(prev, now.Sub(last), false))
				prev, last = cur, now
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// counterValues snapshots every counter's current value.
func (r *Registry) counterValues() map[string]int64 {
	out := map[string]int64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, f := range r.counterFuncs {
		out[name] = f()
	}
	return out
}

// progressLine renders one status line. Counters that are still zero
// are elided; on the final line rates are dropped.
func (r *Registry) progressLine(prev map[string]int64, dt time.Duration, final bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "progress t=%s", r.Uptime().Round(time.Second))
	// A degraded run (data lost under fault injection) is the one state
	// an operator must not miss while watching throughput scroll by.
	r.mu.Lock()
	degraded := r.gauges["faults_degraded"] != nil && r.gauges["faults_degraded"].Value() != 0
	r.mu.Unlock()
	if degraded {
		b.WriteString(" DEGRADED")
	}

	cur := r.counterValues()
	for _, name := range sortedKeys(cur) {
		v := cur[name]
		if v == 0 {
			continue
		}
		short := strings.TrimSuffix(name, "_total")
		fmt.Fprintf(&b, " %s=%s", short, humanCount(float64(v)))
		if !final && dt > 0 {
			if d := v - prev[name]; d > 0 {
				fmt.Fprintf(&b, "(+%s/s)", humanCount(float64(d)/dt.Seconds()))
			}
		}
	}

	// A segment scan knows its size up front (segstore.Reader exports the
	// dataset's bytes and what the filter pruned): project an ETA from
	// the bytes-read rate this tick.
	if !final && dt > 0 {
		r.mu.Lock()
		var goal float64
		if g := r.gauges["segstore_bytes_total"]; g != nil {
			goal = g.Value()
		}
		if g := r.gauges["segstore_bytes_pruned"]; g != nil {
			goal -= g.Value()
		}
		r.mu.Unlock()
		read := cur["segstore_bytes_read_total"]
		if rate := float64(read-prev["segstore_bytes_read_total"]) / dt.Seconds(); rate > 0 && float64(read) < goal {
			eta := time.Duration((goal - float64(read)) / rate * float64(time.Second))
			fmt.Fprintf(&b, " eta=%s", eta.Round(time.Second))
		}
	}

	r.mu.Lock()
	spanNames := sortedKeys(r.spans)
	spans := make([]*SpanTimer, 0, len(spanNames))
	for _, name := range spanNames {
		spans = append(spans, r.spans[name])
	}
	r.mu.Unlock()
	var stages []string
	for i, t := range spans {
		if total := t.Total(); total > 0 || t.Active() > 0 {
			short := strings.TrimSuffix(spanNames[i], "}")
			short = strings.NewReplacer(`{stage="`, ":", `{analysis="`, ":", `"`, "").Replace(short)
			stages = append(stages, fmt.Sprintf("%s=%s", short, total.Round(time.Millisecond)))
		}
	}
	if len(stages) > 0 {
		fmt.Fprintf(&b, " stages[%s]", strings.Join(stages, " "))
	}
	return b.String()
}

// humanCount renders a count with k/M/G suffixes, keeping three
// significant-ish digits.
func humanCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
