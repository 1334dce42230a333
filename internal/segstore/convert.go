package segstore

import (
	"context"
	"errors"
	"io"
	"time"

	"repro/internal/sample"
)

// DefaultSegmentSpan is the window range one segment covers (one day =
// 96 of the paper's 15-minute windows): long enough that segments stay
// chunky, short enough that time-range pruning skips most of a
// multi-day dataset.
const DefaultSegmentSpan = 24 * time.Hour

// DefaultMaxRows caps a segment's rows regardless of span, bounding
// decode memory.
const DefaultMaxRows = 1 << 16

// ConvertJSONL reads a JSON-lines dataset from r (one record per line,
// see sample.Reader) and writes it as a segment dataset into w,
// committing after every segment. Segments cut on user-group changes
// and on DefaultSegmentSpan boundaries — the "window-range × group"
// layout cmd/edgesim writes natively, so converted and natively written
// datasets prune identically — plus a DefaultMaxRows safety cut. Sample
// order is preserved exactly: scanning the result in manifest order
// re-emits the input row for row. A cancelled ctx stops the import at the next
// segment boundary with the cause; the manifest holds every segment
// committed before it.
func ConvertJSONL(ctx context.Context, r io.Reader, w *Writer) (segments, samples int, err error) {
	var pending []sample.Sample
	var curKey sample.GroupKey
	var curChunk int64
	id := 0
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		blob, meta := EncodeSegment(pending)
		if err := w.Add(id, blob, meta); err != nil {
			return err
		}
		if err := w.Commit(); err != nil {
			return err
		}
		id++
		segments++
		samples += len(pending)
		pending = pending[:0]
		return nil
	}

	dec := sample.NewReader(r)
	for {
		s, derr := dec.Read()
		if errors.Is(derr, io.EOF) {
			break
		}
		if derr != nil {
			return segments, samples, derr // names the line
		}
		key, chunk := s.Key(), int64(s.Start/DefaultSegmentSpan)
		if len(pending) > 0 && (key != curKey || chunk != curChunk || len(pending) >= DefaultMaxRows) {
			if err := flush(); err != nil {
				return segments, samples, err
			}
		}
		if len(pending) == 0 {
			curKey, curChunk = key, chunk
		}
		pending = append(pending, s)
	}
	if err := flush(); err != nil {
		return segments, samples, err
	}
	return segments, samples, nil
}

// WriteJSONL scans the dataset (workers-wide, filter-pushed) and
// streams it back out as JSON lines — the seg→jsonl half of the
// round trip. Returns the number of samples written.
func WriteJSONL(ctx context.Context, r *Reader, out io.Writer, workers int, f *Filter) (int, error) {
	sw := sample.NewWriter(out)
	err := r.Scan(ctx, workers, f, func(rows []sample.Sample) error {
		for i := range rows {
			if err := sw.Write(rows[i]); err != nil {
				return err
			}
		}
		return nil
	})
	return sw.Count(), err
}
