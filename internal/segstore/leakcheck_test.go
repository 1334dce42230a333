package segstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// expectedDoubleReleases counts the double releases tests provoke on
// purpose, so TestMain can tell deliberate hardening coverage from a
// real protocol violation elsewhere in the suite.
var expectedDoubleReleases atomic.Int64

// TestMain runs the whole package under leak-check mode and asserts the
// ownership invariant at the end: every pooled batch any test acquired
// was released exactly once (outstanding == 0, no unexpected double
// releases). With the tests below that reach each release on the scan's
// error paths, this is the package's batch ownership check (DESIGN.md
// §13).
func TestMain(m *testing.M) {
	SetLeakCheck(true)
	code := m.Run()
	if out, dbl := LeakStats(); code == 0 && (out != 0 || dbl != expectedDoubleReleases.Load()) {
		fmt.Fprintf(os.Stderr, "segstore leak check: %d outstanding batches, %d double releases (%d expected) after tests\n",
			out, dbl, expectedDoubleReleases.Load())
		code = 1
	}
	os.Exit(code)
}

// pooledBatch builds what readColumns builds: a batch owned by a pool
// with one reference, counted as outstanding.
func pooledBatch(t *testing.T, pool *sync.Pool) *ColumnBatch {
	t.Helper()
	rows := testSamples(t, 5, 3, 1)
	blob, _ := EncodeSegment(rows)
	b, err := decodePooled(pool, blob, len(rows))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDoubleReleaseOwnedBatchCounted(t *testing.T) {
	var pool sync.Pool
	b := pooledBatch(t, &pool)
	_, before := LeakStats()
	b.Release()
	b.Release() // deliberate double release, exercising the hardened counter
	expectedDoubleReleases.Add(1)
	if _, after := LeakStats(); after != before+1 {
		t.Fatalf("double releases went %d -> %d, want +1", before, after)
	}
	if out, _ := LeakStats(); out != 0 {
		t.Fatalf("outstanding = %d after release pair, want 0", out)
	}
}

func TestDoubleReleaseViewCounted(t *testing.T) {
	var pool sync.Pool
	b := pooledBatch(t, &pool)
	v := b.Slice(0, b.Len()/2)
	_, before := LeakStats()
	v.Release()
	// The old protocol no-opped here via parent = nil while v still
	// aliased b's (possibly recycled) arrays; now it is a counted event.
	v.Release() // deliberate double release, exercising the hardened counter
	expectedDoubleReleases.Add(1)
	if _, after := LeakStats(); after != before+1 {
		t.Fatalf("view double releases went %d -> %d, want +1", before, after)
	}
	b.Release()
	if out, _ := LeakStats(); out != 0 {
		t.Fatalf("outstanding = %d after all releases, want 0", out)
	}
}

// A released owned batch must be unmistakably dead under leak-check
// mode: negative row count, zeroed dictionary indexes, nil
// dictionaries — so a use-after-Release fails loudly instead of
// silently reading whichever batch the pool recycled the arrays into.
func TestReleasePoisonsOwnedBatch(t *testing.T) {
	if !LeakCheckEnabled() {
		t.Fatal("TestMain should have enabled leak-check mode")
	}
	var pool sync.Pool
	b := pooledBatch(t, &pool)
	if b.Len() <= 0 {
		t.Fatal("fixture batch is empty")
	}
	b.Release()
	if b.Len() != -1 {
		t.Fatalf("released batch Len() = %d, want -1 (poisoned)", b.Len())
	}
	for _, c := range [...]*DictColumn{&b.PoP, &b.Prefix, &b.Country, &b.Continent, &b.Proto, &b.Route} {
		if c.Dict != nil {
			t.Fatal("released batch still carries dictionaries")
		}
		for i, idx := range c.Idx {
			if idx != 0 {
				t.Fatalf("released batch dictionary index [%d] = %d, want 0", i, idx)
			}
		}
	}
	// And reacquisition must fully repair the poison. A race-enabled
	// sync.Pool drops some Puts on purpose, so the pool hands back
	// either b or nothing; b stands in for itself in the second case.
	got, _ := pool.Get().(*ColumnBatch)
	if got == nil {
		got = b
	}
	got.pool = &pool
	got.refs.Store(1)
	outstanding.Add(1)
	rows := testSamples(t, 5, 3, 1)
	blob, _ := EncodeSegment(rows)
	if err := decodeInto(blob, got); err != nil {
		got.Release()
		t.Fatal(err)
	}
	if got.Len() != len(rows) {
		t.Fatalf("reacquired batch Len() = %d, want %d", got.Len(), len(rows))
	}
	got.Release()
}

// writeDataset commits rows across several segments so parallel scans
// have real reordering to do.
func writeDataset(t *testing.T, segments int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "leak.seg")
	all := testSamples(t, 17, 8, 2)
	if len(all) < segments*2 {
		t.Fatalf("fixture too small: %d rows", len(all))
	}
	w, err := Create(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	per := len(all) / segments
	for id := 0; id < segments; id++ {
		lo, hi := id*per, (id+1)*per
		if id == segments-1 {
			hi = len(all)
		}
		blob, meta := EncodeSegment(all[lo:hi])
		if err := w.Add(id, blob, meta); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// Regression: a mid-scan emit error used to strand every batch that was
// decoded but not yet emitted — the workers' failed Sends leaked their
// batches and Reorder dropped its pending window. The drain path must
// release all of them, also when the segment after the failing emit is
// rotted and its decode error races the emit error (decoding runs ahead
// of emit at every worker count): either error may win, nil may not.
func TestScanColumnsEmitErrorReleasesEverything(t *testing.T) {
	dir := writeDataset(t, 6)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	before, _ := LeakStats()
	boom := errors.New("sink exploded")
	for _, rotted := range []bool{false, true} {
		if rotted {
			path := filepath.Join(dir, r.Manifest().Segments[2].File)
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			blob[len(blob)/2] ^= 0xff
			if err := os.WriteFile(path, blob, 0o666); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 4} {
			emitted := 0
			err := r.ScanColumns(context.Background(), workers, nil, func(b *ColumnBatch) error {
				emitted++
				b.Release()
				if emitted >= 2 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) && !(rotted && errors.Is(err, ErrCorrupt)) {
				t.Fatalf("rotted=%v workers=%d: scan error = %v, want the emit error", rotted, workers, err)
			}
			if out, _ := LeakStats(); out != before {
				t.Fatalf("rotted=%v workers=%d: outstanding batches = %d, want %d — poisoned scan leaked pool capacity", rotted, workers, out, before)
			}
		}
	}
}

// rotSegment rewrites segment i of the dataset at dir through mutate —
// the segment's bytes and its manifest entry — then recommits the
// manifest with the file's new size and checksum, so the rot passes
// Open and the whole-file check and only the pooled decode can see it.
func rotSegment(t *testing.T, dir string, i int, mutate func(m *SegmentMeta, blob []byte)) {
	t.Helper()
	man, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &man.Segments[i]
	path := filepath.Join(dir, m.File)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate(m, blob)
	if err := os.WriteFile(path, blob, 0o666); err != nil {
		t.Fatal(err)
	}
	m.Bytes, m.CRC = int64(len(blob)), fileCRC(blob)
	if err := commitManifest(dir, man); err != nil {
		t.Fatal(err)
	}
}

// A segment that passes the manifest's whole-file checksum can still
// fail to decode (a column checksum) or hold a row count other than
// the manifest's. Both are found only after a pooled batch was taken
// for it, and both must give that batch back: the scan fails with
// ErrCorrupt and leaves nothing outstanding.
func TestScanColumnsPooledCorruptionReleases(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(m *SegmentMeta, blob []byte)
	}{
		{"undecodable", func(_ *SegmentMeta, blob []byte) { blob[len(blob)/2] ^= 0xff }},
		{"row count", func(m *SegmentMeta, _ []byte) { m.Samples++ }},
	} {
		dir := writeDataset(t, 6)
		rotSegment(t, dir, 2, tc.mutate)
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			before, _ := LeakStats()
			err := r.ScanColumns(context.Background(), workers, nil, func(b *ColumnBatch) error {
				b.Release()
				return nil
			})
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, workers=%d: scan error = %v, want ErrCorrupt", tc.name, workers, err)
			}
			if out, _ := LeakStats(); out != before {
				t.Errorf("%s, workers=%d: outstanding batches = %d, want %d — the corrupt segment's pooled batch leaked", tc.name, workers, out, before)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// awaitOutstanding waits until exactly want pooled batches are
// outstanding, or fails after five seconds naming what it saw.
func awaitOutstanding(want int64) error {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		out, _ := LeakStats()
		if out == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("outstanding batches stuck at %d, want %d", out, want)
		}
	}
}

// A batch decoded ahead of emit and never emitted is released. At one
// worker the scan's window is three segments: emit holds segment 0
// while segments 1 and 2 are decoded and wait, and no fourth is
// decoded. The scan is cancelled then, so emit never sees segments 1
// and 2, and both are released before ScanColumns returns.
func TestScanColumnsFailedSendReleases(t *testing.T) {
	dir := writeDataset(t, 6)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	before, _ := LeakStats()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	err = r.ScanColumns(ctx, 1, nil, func(b *ColumnBatch) error {
		defer b.Release()
		if emitted++; emitted > 1 {
			return errors.New("a segment emitted after the cancel")
		}
		// Segment 0 here, segments 1 and 2 decoded and waiting.
		if err := awaitOutstanding(before + 3); err != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond) // room for a worker that would overrun the window
		if out, _ := LeakStats(); out != before+3 {
			return fmt.Errorf("%d batches outstanding while emit holds segment 0, want the window, 3", out-before)
		}
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("scan error = %v, want context.Canceled", err)
	}
	if out, _ := LeakStats(); out != before {
		t.Fatalf("outstanding batches = %d, want %d", out, before)
	}
}

// At one worker the scan still reads ahead: segment 1 is read,
// checksummed and decoded while emit holds segment 0.
func TestScanReadsAheadAtOneWorker(t *testing.T) {
	dir := writeDataset(t, 3)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	reg := obs.NewRegistry()
	r.Instrument(reg)
	read := reg.Counter("segstore_segments_read_total")

	emitted := 0
	err = r.ScanColumns(context.Background(), 1, nil, func(b *ColumnBatch) error {
		defer b.Release()
		if emitted++; emitted > 1 {
			return nil
		}
		for deadline := time.Now().Add(10 * time.Second); read.Value() < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return fmt.Errorf("emit of segment 0 waited 10s with %d segments read: the scan does not read ahead", read.Value())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 3 {
		t.Fatalf("emitted %d batches, want 3", emitted)
	}
}
