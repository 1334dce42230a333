package world

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/trace"
)

// driverRun is what one driver left behind: each group's samples in
// order, the flushed trace file, and the world's counters.
type driverRun struct {
	streams  [][]sample.Sample
	lost     int
	trace    []byte
	counters map[string]int64
	genSpans int64
}

// Every driver generates and records a group's windows through
// groupFeed.window. So under one world with a PoP outage (a window mark,
// a fault and a loss fire), GenerateBatches, GenerateBatchesOf over
// the groups in reverse, each group's days delivered in day order, and
// LiveFeed.Run give, at any worker count, the same per-group sample
// streams, byte-identical trace files and the same world counters.
func TestDriversAgree(t *testing.T) {
	cfg := Config{Seed: 31, Groups: 7, Days: 2, SessionsPerGroupWindow: 5}
	downPoP := New(cfg).Groups[0].PoP
	down := func(pop string, win int) bool { return pop == downPoP && win >= 20 && win < 40 }

	drive := func(run func(w *World, keep func(group int, ss []sample.Sample, lost int)) error) (driverRun, error) {
		w := New(cfg)
		w.PoPDown = down
		reg := obs.NewRegistry()
		w.Instrument(reg)
		w.Rec = trace.New(cfg.Seed)
		r := driverRun{streams: make([][]sample.Sample, cfg.Groups)}
		err := run(w, func(group int, ss []sample.Sample, lost int) {
			r.streams[group] = append(r.streams[group], ss...) // copies a live window out of its lent buffer
			r.lost += lost
		})
		var buf bytes.Buffer
		if ferr := w.Rec.Flush(&buf); err == nil {
			err = ferr
		}
		r.trace = buf.Bytes()
		r.counters = map[string]int64{}
		for _, name := range []string{"world_sessions_total", "world_windows_total", "world_groups_total", "world_outage_sessions_total"} {
			r.counters[name] = reg.Counter(name).Value()
		}
		r.genSpans = reg.Span(obs.L("world_stage_seconds", "stage", "generate"), "world").Count()
		return r, err
	}

	type driver struct {
		name string
		run  func(w *World, keep func(int, []sample.Sample, int)) error
	}
	// inDayOrder keeps each day of a batch run, failing one that does not
	// arrive next in its group's day order.
	inDayOrder := func(w *World, keep func(int, []sample.Sample, int)) func(Batch) error {
		next := make([]int, len(w.Groups))
		return func(b Batch) error {
			if b.Day != next[b.Group] {
				return fmt.Errorf("group %d's day %d arrived after %d of its days", b.Group, b.Day, next[b.Group])
			}
			next[b.Group]++
			keep(b.Group, b.Samples, b.Lost)
			return nil
		}
	}
	var drivers []driver
	for _, workers := range []int{1, 4} {
		drivers = append(drivers, driver{fmt.Sprintf("GenerateBatches/workers=%d", workers), func(w *World, keep func(int, []sample.Sample, int)) error {
			return w.GenerateBatches(context.Background(), workers, inDayOrder(w, keep))
		}})
	}
	drivers = append(drivers, driver{"GenerateBatchesOf/reversed/workers=3", func(w *World, keep func(int, []sample.Sample, int)) error {
		reversed := make([]int, len(w.Groups))
		for i := range reversed {
			reversed[i] = len(w.Groups) - 1 - i
		}
		return w.GenerateBatchesOf(context.Background(), reversed, 3, inDayOrder(w, keep))
	}})
	for _, workers := range []int{1, 3} {
		drivers = append(drivers, driver{fmt.Sprintf("LiveFeed.Run/workers=%d", workers), func(w *World, keep func(int, []sample.Sample, int)) error {
			return NewLiveFeed(w).Run(context.Background(), workers, func(b WindowBatch) error {
				keep(b.Group, b.Samples, b.Lost)
				return nil
			}, func(int) error { return nil })
		}})
	}

	var want driverRun
	for i, d := range drivers {
		got, err := drive(d.run)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if got.genSpans == 0 {
			t.Errorf("%s: world_stage_seconds{generate} counted no spans", d.name)
		}
		if i == 0 {
			want = got
			sessions := 0
			for _, ss := range got.streams {
				sessions += len(ss)
			}
			if sessions == 0 || got.lost == 0 || !bytes.Contains(got.trace, []byte("pop-outage")) {
				t.Fatalf("%s: %d sessions and %d lost, outage traced %v: the world must both generate and lose sessions",
					d.name, sessions, got.lost, bytes.Contains(got.trace, []byte("pop-outage")))
			}
			if want.counters["world_sessions_total"] != int64(sessions) || want.counters["world_outage_sessions_total"] != int64(got.lost) {
				t.Fatalf("%s: counters %v, want %d sessions and %d lost", d.name, want.counters, sessions, got.lost)
			}
			continue
		}
		for g := range got.streams {
			if !reflect.DeepEqual(got.streams[g], want.streams[g]) {
				t.Errorf("%s: group %d's %d samples differ from %s's %d", d.name, g, len(got.streams[g]), drivers[0].name, len(want.streams[g]))
			}
		}
		if got.lost != want.lost {
			t.Errorf("%s: %d sessions lost, %s lost %d", d.name, got.lost, drivers[0].name, want.lost)
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("%s: trace file (%d bytes) differs from %s's (%d bytes)", d.name, len(got.trace), drivers[0].name, len(want.trace))
		}
		for name, v := range got.counters {
			if v != want.counters[name] {
				t.Errorf("%s: %s = %d, %s counted %d", d.name, name, v, drivers[0].name, want.counters[name])
			}
		}
	}
}
