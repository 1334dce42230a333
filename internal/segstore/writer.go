package segstore

import (
	"fmt"
	"os"
	"path/filepath"
)

// Writer appends segments to a dataset directory under the manifest
// commit protocol:
//
//  1. the encoded segment is written to a temp file and renamed into
//     place (readers never see a torn segment file);
//  2. the manifest — now listing the new segment — is committed
//     atomically (commitManifest).
//
// A crash or SIGINT between the two leaves an orphan segment file that
// the manifest does not reference; the next run overwrites it. Because
// the manifest is the sole source of truth, the dataset is readable
// after an interrupt at any instant, and Create on an existing
// directory resumes: segments (and tombstones) already committed are
// reported by Committed and skipped by the caller.
//
// Writer is single-goroutine by design — it is the ordered end of a
// pipeline (seggen.Run writes the groups in order on one goroutine).
type Writer struct {
	dir string
	man *Manifest
	// done indexes every ID the manifest accounts for (segment or
	// tombstone) — the resume skip-set.
	done map[int]bool
}

// Create opens dir for writing, creating it if needed. If dir already
// holds a manifest the writer resumes it: origin must match (a resumed
// run with a different seed or fault plan would silently interleave
// two datasets), and committed segment files are re-verified by size
// and checksum — entries whose files went missing or rotted are
// dropped so the caller regenerates them.
func Create(dir, origin string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("segstore: %w", err)
	}
	w := &Writer{dir: dir, done: map[int]bool{}}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		man, err := LoadManifest(dir)
		if err != nil {
			return nil, err
		}
		if man.Origin != origin {
			return nil, fmt.Errorf("segstore: %s: manifest origin %q does not match %q; refusing to resume", dir, man.Origin, origin)
		}
		kept := man.Segments[:0]
		for _, m := range man.Segments {
			data, err := os.ReadFile(filepath.Join(dir, m.File))
			if err != nil || int64(len(data)) != m.Bytes || fileCRC(data) != m.CRC {
				continue // regenerate this one
			}
			kept = append(kept, m)
			w.done[m.ID] = true
		}
		man.Segments = kept
		for _, tb := range man.Tombstones {
			w.done[tb.ID] = true
		}
		w.man = man
		return w, nil
	}
	w.man = &Manifest{Format: FormatVersion, Origin: origin, Segments: []SegmentMeta{}}
	return w, nil
}

// Committed reports whether the manifest already accounts for id
// (either a verified segment or a tombstone) — the resume predicate.
func (w *Writer) Committed(id int) bool { return w.done[id] }

// Manifest exposes the in-memory manifest (for reporting; the on-disk
// copy only advances on Commit).
func (w *Writer) Manifest() *Manifest { return w.man }

// Add writes one encoded segment (blob and meta from EncodeSegment)
// under id. The file lands atomically, but the manifest does not
// reference it until the next Commit.
func (w *Writer) Add(id int, blob []byte, meta SegmentMeta) error {
	if w.done[id] {
		return fmt.Errorf("segstore: segment %d already committed", id)
	}
	meta.ID = id
	meta.File = segmentFileName(id)
	tmp := filepath.Join(w.dir, meta.File+".tmp")
	if err := os.WriteFile(tmp, blob, 0o666); err != nil {
		return fmt.Errorf("segstore: segment %d: %w", id, err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, meta.File)); err != nil {
		return fmt.Errorf("segstore: segment %d: %w", id, err)
	}
	w.man.Segments = append(w.man.Segments, meta)
	w.done[id] = true
	return nil
}

// Tombstone records that segment id was lost (an unrecoverable write
// fault): the slot is accounted — resume will not regenerate it — and
// the loss is auditable in the manifest, which stays fully readable.
func (w *Writer) Tombstone(id int, reason string, samplesLost int) {
	if w.done[id] {
		return
	}
	w.man.Tombstones = append(w.man.Tombstones, Tombstone{ID: id, Reason: reason, SamplesLost: samplesLost})
	w.done[id] = true
}

// Commit atomically publishes the manifest. cmd/edgesim commits after
// every group's segments, so an interrupt loses at most the segments
// encoded since the last group boundary.
func (w *Writer) Commit() error {
	return commitManifest(w.dir, w.man)
}
