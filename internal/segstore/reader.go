package segstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sample"
)

// Reader scans a segment dataset. Open loads the manifest once; every
// Scan plans against it (pruning segments the filter disproves), then
// decodes the survivors — in parallel when asked — and emits their
// rows in manifest order, so downstream consumers see exactly the
// order the samples were generated (or imported) in.
type Reader struct {
	dir string
	man *Manifest
	// f pins the manifest that was opened (a concurrent recommit swaps
	// the directory entry, not our snapshot); Close releases it.
	f *os.File

	// The Instrument registry and pre-resolved handles on it; nil (no-op)
	// until Instrument.
	reg         *obs.Registry
	scanSpan    *obs.SpanTimer
	cBytesRead  *obs.Counter
	cSamples    *obs.Counter
	cSegsRead   *obs.Counter
	gSegsTotal  *obs.Gauge
	gSegsPruned *obs.Gauge
	gBytesTotal *obs.Gauge
	gBytesPrune *obs.Gauge
}

// Open loads the dataset manifest at dir and verifies that every
// segment file the manifest commits actually exists on disk at its
// recorded size — a dataset rotted by a deleted or truncated segment
// fails here, loudly and with the precise segment named, instead of as
// a confusing read error deep inside the first scan that happens to
// need it. (Content checksums stay on the scan path: Open stats, it
// does not read.) Anything that is not a dataset directory is refused
// with the one way in for it: a segcat import.
func Open(dir string) (*Reader, error) {
	if !IsDataset(dir) {
		return nil, fmt.Errorf("segstore: %s is not a segment dataset (a directory holding %s); a JSON-lines file becomes one with `segcat -in %s -o <dir>`", dir, ManifestName, dir)
	}
	man, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	for _, m := range man.Segments {
		fi, err := os.Stat(filepath.Join(dir, m.File))
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("segstore: %s: manifest commits segment %d but %s is missing on disk: %w", dir, m.ID, m.File, ErrCorrupt)
		}
		if err != nil {
			return nil, fmt.Errorf("segstore: %s: segment %d (%s): %w", dir, m.ID, m.File, err)
		}
		if fi.Size() != m.Bytes {
			return nil, fmt.Errorf("segstore: %s: segment %d (%s) is %d bytes on disk, manifest says %d: %w",
				dir, m.ID, m.File, fi.Size(), m.Bytes, ErrCorrupt)
		}
	}
	f, err := os.Open(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	return &Reader{dir: dir, man: man, f: f}, nil
}

// Manifest returns the loaded manifest.
func (r *Reader) Manifest() *Manifest { return r.man }

// Close releases the manifest handle. The error matters on platforms
// where close surfaces deferred I/O failures; edgelint's closecheck
// flags callers that drop it.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// Instrument registers scan metrics on reg (nil-safe): bytes/segments
// read and decoded samples as counters (rates show on the obs progress
// line), plan totals and pruned amounts as gauges, and each scan's
// decode queue.
func (r *Reader) Instrument(reg *obs.Registry) {
	r.reg = reg
	r.scanSpan = reg.Span(obs.L("segstore_stage_seconds", "stage", "scan"), "segstore")
	r.cBytesRead = reg.Counter("segstore_bytes_read_total")
	r.cSamples = reg.Counter("segstore_samples_decoded_total")
	r.cSegsRead = reg.Counter("segstore_segments_read_total")
	r.gSegsTotal = reg.Gauge("segstore_segments_total")
	r.gSegsPruned = reg.Gauge("segstore_segments_pruned")
	r.gBytesTotal = reg.Gauge("segstore_bytes_total")
	r.gBytesPrune = reg.Gauge("segstore_bytes_pruned")
}

// Prune plans a scan of the whole dataset: the manifest's segments that
// survive f, in manifest order.
func (r *Reader) Prune(f *Filter) []SegmentMeta { return r.prune(r.man.Segments, f) }

// prune returns the segments of segs that survive f, in order. The
// pruning gauges record what the filter saved — the "scans measurably
// fewer bytes" evidence, observable per run.
func (r *Reader) prune(segs []SegmentMeta, f *Filter) []SegmentMeta {
	var kept []SegmentMeta
	var totalBytes, prunedBytes int64
	for _, m := range segs {
		totalBytes += m.Bytes
		if f.MatchSegment(&m) {
			kept = append(kept, m)
		} else {
			prunedBytes += m.Bytes
		}
	}
	r.gSegsTotal.Set(float64(len(segs)))
	r.gSegsPruned.Set(float64(len(segs) - len(kept)))
	r.gBytesTotal.Set(float64(totalBytes))
	r.gBytesPrune.Set(float64(prunedBytes))
	return kept
}

// scanPool recycles decoded column batches across segments, scans and
// readers, so that a long scan reuses a handful of buffer sets instead
// of allocating per segment, and a new Reader over the same data starts
// from the buffers the last one grew. Batches return here via Release.
var scanPool sync.Pool

// readColumns loads and decodes one segment into a pooled batch,
// verifying the manifest's whole-file checksum before the per-column
// ones. The returned batch is owned by the caller (Release it).
func (r *Reader) readColumns(m SegmentMeta) (*ColumnBatch, error) {
	sp := r.scanSpan.Start()
	defer sp.End()
	data, err := os.ReadFile(filepath.Join(r.dir, m.File))
	if err != nil {
		return nil, fmt.Errorf("segstore: segment %d: %w", m.ID, err)
	}
	if int64(len(data)) != m.Bytes || fileCRC(data) != m.CRC {
		return nil, fmt.Errorf("segstore: segment %d (%s): %w: file does not match manifest checksum", m.ID, m.File, ErrCorrupt)
	}
	b, err := decodePooled(&scanPool, data, m.Samples)
	if err != nil {
		return nil, fmt.Errorf("segstore: segment %d (%s): %w", m.ID, m.File, err)
	}
	if m.SingleGroup() {
		b.singleGroup = true
	}
	r.cBytesRead.Add(int64(len(data)))
	r.cSamples.Add(int64(b.Len()))
	r.cSegsRead.Inc()
	return b, nil
}

// decodePooled decodes one segment block into a batch from pool, owned
// by the caller (Release it) and counted as outstanding until its last
// release. A block that fails to decode, or holds other than rows rows,
// is released here and returns an error wrapping ErrCorrupt.
func decodePooled(pool *sync.Pool, data []byte, rows int) (*ColumnBatch, error) {
	b := acquire(pool)
	if err := decodeInto(data, b); err != nil {
		b.Release()
		return nil, err
	}
	if n := b.Len(); n != rows {
		b.Release()
		return nil, fmt.Errorf("%w: %d rows, manifest says %d", ErrCorrupt, n, rows)
	}
	return b, nil
}

// acquire takes a batch from pool, owned by the caller (Release it) and
// counted as outstanding until its last release.
func acquire(pool *sync.Pool) *ColumnBatch {
	b, _ := pool.Get().(*ColumnBatch)
	if b == nil {
		b = new(ColumnBatch)
	}
	b.pool = pool
	b.refs.Store(1)
	outstanding.Add(1)
	return b
}

// ScanColumns scans the whole dataset: ScanSegments over every segment
// the manifest lists.
func (r *Reader) ScanColumns(ctx context.Context, workers int, f *Filter, emit func(*ColumnBatch) error) error {
	return r.ScanSegments(ctx, workers, r.man.Segments, f, emit)
}

// ScanSegments scans segs — segments of this dataset's manifest, in the
// order given: a reader that has already seen the others passes only the
// rest. It prunes against f, decodes the surviving segments into column
// batches on up to workers goroutines (at least one), filters them at the
// column level, and emits each batch in segs order on the calling
// goroutine through a pipeline.Ordered — the primary read path; no row
// structs are built. Decoding runs ahead of emit, so even one worker
// reads segment k+1 while emit folds segment k, but never more than
// pipeline.Window(workers) segments past the lowest one not yet
// emitted; the decoded batches waiting on emit are
// pipeline_queue_depth{stage="segstore_decode"} on the Instrument
// registry. emit takes ownership of the batch and must Release it
// (directly or by handing it on); emit's error — like a decode error —
// poisons the whole scan, and every batch decoded and not emitted is
// released before ScanSegments returns.
func (r *Reader) ScanSegments(ctx context.Context, workers int, segs []SegmentMeta, f *Filter, emit func(*ColumnBatch) error) error {
	plan := r.prune(segs, f)
	o := pipeline.NewOrdered[*ColumnBatch](workers, len(plan), (*ColumnBatch).Release)
	o.Instrument(r.reg, "segstore_decode")
	return o.Run(ctx, func(_ context.Context, _, i int) (*ColumnBatch, error) {
		b, err := r.readColumns(plan[i])
		if err != nil {
			return nil, err
		}
		f.ApplyColumns(b)
		return b, nil
	}, emit)
}

// Scan is the row view of ScanColumns: same pruning, decode
// parallelism, filtering, and manifest-order emission, with each batch
// materialized to sample.Sample rows on the ordered emit goroutine.
// The rows slice is reused between emits — it is valid only until emit
// returns; consumers that retain samples must copy them.
func (r *Reader) Scan(ctx context.Context, workers int, f *Filter, emit func([]sample.Sample) error) error {
	var rows []sample.Sample
	return r.ScanColumns(ctx, workers, f, func(b *ColumnBatch) error {
		rows = b.AppendRows(rows[:0])
		err := emit(rows)
		b.Release()
		return err
	})
}
