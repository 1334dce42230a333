// Package segstore is the repo's binary columnar storage layer: a
// self-describing, dependency-free segment format for sample.Sample
// datasets, built for the paper's operating regime — archives far too
// large to re-decode in full when an analysis wants one country or one
// day (§3.3 aggregates hundreds of trillions of sessions into
// 15-minute windows precisely so they can be re-analysed cheaply).
//
// A dataset is a directory of immutable segments plus one manifest:
//
//	ds.seg/
//	  MANIFEST.json      atomically committed index (see Manifest)
//	  seg-00000000.seg   columnar block: one group × window span
//	  seg-00000001.seg   ...
//
// Each segment stores its samples column-by-column: timestamps and
// counters as delta/zigzag varints, low-cardinality strings (PoP,
// country, prefix, route) dictionary-encoded, floats as raw bits,
// booleans bitpacked — every column carrying its own CRC32 so a
// flipped bit is a loud decode error, never a silently wrong figure.
// The layout is self-describing (columns are named in the file), so a
// newer reader can skip columns it does not know.
//
// The manifest doubles as a checkpoint and as the scan planner's
// index: per segment it records the sample count, window span, and the
// country/PoP sets, so readers prune whole segments against a Filter
// before a single byte of column data is read, and an interrupted
// writer (cmd/edgesim) resumes by re-emitting only the
// segments the manifest has not committed. Commits are atomic
// (write-temp + rename), so a SIGINT at any instant leaves a readable
// dataset; a fault-injected write failure tombstones its segment in
// the manifest instead of corrupting it.
//
// Determinism contract: encoding is a pure function of the sample
// slice (dictionaries are built in first-appearance order), manifests
// render sorted by segment ID with no wall-clock fields, and parallel
// scans re-emit segments in manifest order — so seg datasets inherit
// the repo-wide guarantee that output bytes do not depend on worker
// count, and a resumed run's directory is byte-identical to an
// uninterrupted one.
package segstore

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// ManifestName is the manifest file every dataset directory carries.
const ManifestName = "MANIFEST.json"

// FormatVersion tags the manifest and segment encoding revision.
const FormatVersion = "edgeseg/1"

// SegmentMeta indexes one immutable segment file.
type SegmentMeta struct {
	// ID orders segments; concatenating segments in ascending ID order
	// reproduces the dataset's canonical sample order (what a JSONL
	// export streams).
	ID int `json:"id"`
	// File is the segment's file name within the dataset directory.
	File string `json:"file"`
	// Samples is the row count.
	Samples int `json:"samples"`
	// Bytes is the segment file size.
	Bytes int64 `json:"bytes"`
	// CRC is the CRC32 (IEEE) of the whole segment file.
	CRC uint32 `json:"crc"`
	// StartMin/StartMax bound the rows' Start offsets (nanoseconds from
	// the dataset epoch) — the scan planner's time-range index. Both are
	// zero when the segment is empty.
	StartMin int64 `json:"start_min"`
	StartMax int64 `json:"start_max"`
	// Countries and PoPs are the sorted distinct values present — the
	// predicate-pushdown index for geographic filters.
	Countries []string `json:"countries,omitempty"`
	PoPs      []string `json:"pops,omitempty"`
	// Prefixes is the sorted distinct client prefixes present. Together
	// with Countries and PoPs it is the single-group index: one value in
	// each set proves every row shares one user group, which lets the
	// aggregator skip per-row group dispatch for the whole segment.
	// Absent from manifests written before the field existed — readers
	// fall back to the decoded dictionaries.
	Prefixes []string `json:"prefixes,omitempty"`
}

// SingleGroup reports whether the manifest index proves the segment's
// rows all share one user group (PoP × prefix × country).
func (m *SegmentMeta) SingleGroup() bool {
	return len(m.PoPs) == 1 && len(m.Prefixes) == 1 && len(m.Countries) == 1
}

// Tombstone records a segment that was lost to an injected or real
// write failure: the slot is accounted for (resume will not retry it)
// and the loss is visible, but no data pretends to exist.
type Tombstone struct {
	ID          int    `json:"id"`
	Reason      string `json:"reason"`
	SamplesLost int    `json:"samples_lost"`
}

// Manifest is the dataset index, committed atomically after every
// segment append. It carries no wall-clock fields: two runs that wrote
// the same segments commit byte-identical manifests.
type Manifest struct {
	Format string `json:"format"`
	// Origin describes the writer invocation (seed, config, fault plan);
	// resume refuses to extend a dataset with a different origin.
	Origin     string        `json:"origin,omitempty"`
	Segments   []SegmentMeta `json:"segments"`
	Tombstones []Tombstone   `json:"tombstones,omitempty"`
}

// TotalSamples sums the committed segments' row counts.
func (m *Manifest) TotalSamples() int {
	n := 0
	for _, s := range m.Segments {
		n += s.Samples
	}
	return n
}

// TotalBytes sums the committed segments' file sizes.
func (m *Manifest) TotalBytes() int64 {
	var n int64
	for _, s := range m.Segments {
		n += s.Bytes
	}
	return n
}

// sortEntries restores the canonical manifest order (ascending ID).
func (m *Manifest) sortEntries() {
	sort.Slice(m.Segments, func(i, j int) bool { return m.Segments[i].ID < m.Segments[j].ID })
	sort.Slice(m.Tombstones, func(i, j int) bool { return m.Tombstones[i].ID < m.Tombstones[j].ID })
}

// IsDataset reports whether path is a segment-dataset directory: how
// cmd/segcat picks its direction and how Open refuses anything else.
func IsDataset(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, ManifestName))
	return err == nil
}

// segmentFileName names a segment file for its ID.
func segmentFileName(id int) string { return fmt.Sprintf("seg-%08d.seg", id) }

// LoadManifest reads and validates the dataset's manifest: its format,
// one entry per segment ID, and each segment's file name. It opens no
// segment file. Commits are atomic renames, so a reader running beside
// a writer never sees a torn manifest.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("segstore: %s: corrupt manifest: %w", dir, err)
	}
	if m.Format != FormatVersion {
		return nil, fmt.Errorf("segstore: %s: manifest format %q, want %q", dir, m.Format, FormatVersion)
	}
	seen := make(map[int]bool, len(m.Segments))
	for _, s := range m.Segments {
		if seen[s.ID] {
			return nil, fmt.Errorf("segstore: %s: manifest lists segment %d twice", dir, s.ID)
		}
		seen[s.ID] = true
		if s.File != segmentFileName(s.ID) {
			return nil, fmt.Errorf("segstore: %s: segment %d names file %q, want %q", dir, s.ID, s.File, segmentFileName(s.ID))
		}
	}
	for _, tb := range m.Tombstones {
		if seen[tb.ID] {
			return nil, fmt.Errorf("segstore: %s: segment %d is both committed and tombstoned", dir, tb.ID)
		}
		seen[tb.ID] = true
	}
	m.sortEntries()
	return &m, nil
}

// commitManifest writes the manifest atomically: marshal, write to a
// temp file in the same directory, fsync, rename over ManifestName. A
// process killed at any point leaves either the old or the new
// manifest, never a torn one.
func commitManifest(dir string, m *Manifest) error {
	m.sortEntries()
	if err := atomicWriteJSON(dir, ManifestName, m); err != nil {
		return fmt.Errorf("segstore: commit manifest: %w", err)
	}
	return nil
}

// atomicWriteJSON commits v as indented JSON to dir/name via the
// write-temp + fsync + rename protocol shared by the manifest and the
// shipping ack log: a process killed at any instant leaves either the
// old file or the new one, never a torn write.
func atomicWriteJSON(dir, name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal %s: %w", name, err)
	}
	data = append(data, '\n')
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close() // the write error is the root cause
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, name))
}

// fileCRC computes the whole-file checksum recorded in the manifest.
func fileCRC(data []byte) uint32 { return crc32.ChecksumIEEE(data) }
