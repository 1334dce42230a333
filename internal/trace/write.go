package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// Header is the first line of every trace file.
const Header = "edgetrace/v1"

// Events returns every deterministic event collected so far, in
// canonical order. Call only after the emitting goroutines are done.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []Event
	for _, b := range r.bufs {
		out = append(out, b.ev...)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// Flush flushes the deterministic trace to w in canonical order:
// one header line carrying the format version, the event-ID base, and
// the overwrite count, then one JSONL record per event sorted by
// (track, phase, seq, ...). Because the sort key is purely logical,
// the bytes written are identical at every worker count (provided no
// ring overflowed — the header's "dropped" field says so).
func (r *Recorder) Flush(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"trace\":%q,\"base\":\"%016x\",\"dropped\":%d}\n", Header, r.Base(), r.Dropped())
	base := r.Base()
	for _, e := range r.Events() {
		writeEvent(bw, e, base)
	}
	return bw.Flush()
}

// writeEvent marshals one event by hand so field order and number
// formatting are fixed (encoding/json map ordering never enters).
func writeEvent(bw *bufio.Writer, e Event, base uint64) {
	bw.WriteString(`{"t":`)
	bw.WriteString(strconv.Quote(e.Track))
	bw.WriteString(`,"p":`)
	bw.WriteString(strconv.Itoa(int(e.Phase)))
	bw.WriteString(`,"w":`)
	bw.WriteString(strconv.Itoa(int(e.Win)))
	bw.WriteString(`,"q":`)
	bw.WriteString(strconv.FormatUint(e.Seq, 10))
	bw.WriteString(`,"k":`)
	bw.WriteString(strconv.Quote(e.Kind.String()))
	bw.WriteString(`,"s":`)
	bw.WriteString(strconv.Quote(e.Stage))
	if e.Value != 0 {
		bw.WriteString(`,"v":`)
		bw.WriteString(strconv.FormatInt(e.Value, 10))
	}
	if e.Detail != "" {
		bw.WriteString(`,"d":`)
		bw.WriteString(strconv.Quote(e.Detail))
	}
	bw.WriteString(`,"id":"`)
	var idb [16]byte
	hex16(idb[:], e.ID(base))
	bw.Write(idb[:])
	bw.WriteString("\"}\n")
}

func hex16(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// WriteFile flushes the deterministic trace to path.
func (r *Recorder) WriteFile(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Flush(f); err != nil {
		_ = f.Close() // the Flush error is the one worth reporting
		return err
	}
	return f.Close()
}
