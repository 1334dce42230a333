// Package trace is the deterministic flight recorder for the edge
// stack: every pipeline stage emits typed events — span begin/end,
// window marks, fault injections, retry attempts, quarantines, losses,
// window seals, segment commits — into per-goroutine bounded ring
// buffers, and the recorder flushes them to an append-only trace file
// written next to the dataset.
//
// The central contract is determinism (the property Dapper-style
// diagnosis rests on when runs must be comparable): event identity and
// ordering derive from the run's rng lineage and the pipeline's own
// logical sequence numbers — group indexes, window indexes, session
// IDs — never from wall clock or scheduling. Events are keyed by a
// logical *track* (a world group, a user-group key, or the run itself)
// plus a phase rank and an in-track sequence number; the flush sorts
// on that key, so the same flags produce a byte-identical trace file
// at any worker count. Physical measurements that cannot be
// deterministic (queue depths, stage wall clocks) are not trace events:
// they live on the obs registry's /metrics exposition.
//
// Cost model: a nil *Recorder or *Buf is valid everywhere and makes
// every emission a no-op — tracing disabled costs a nil check and
// zero allocations on the sample hot path. Enabled, Emit is one copy
// into a single-goroutine-owned ring: no locks, no allocations once
// the ring reaches steady state (flight-recorder overwrite).
package trace

import (
	"strconv"
	"sync"

	"repro/internal/rng"
)

// Kind enumerates trace event types.
type Kind uint8

// Event kinds: every one is deterministic.
const (
	// KBegin/KEnd bracket one logical span (a group's generation, a
	// batch fold); Value on KEnd is the span's logical size in samples.
	KBegin Kind = iota + 1
	KEnd
	// KMark is a point event: per-window sample counts, run-level
	// milestones, the coverage-ledger summary.
	KMark
	// KFault records one injected fault decision at the surface that
	// honoured it (Detail names the fault class).
	KFault
	// KRetry records one backoff attempt against a transient fault.
	KRetry
	// KQuarantine records a group withdrawn from aggregation.
	KQuarantine
	// KLoss books samples lost to a cause (Detail); cause attribution
	// reconciles the sum of these against the faults Coverage ledger.
	KLoss
	// KSeal records a sealed group series entering the merged store.
	KSeal
	// KCommit records a segment-store chunk committed to the manifest.
	KCommit
)

var kindNames = map[Kind]string{
	KBegin: "begin", KEnd: "end", KMark: "mark", KFault: "fault",
	KRetry: "retry", KQuarantine: "quarantine", KLoss: "loss",
	KSeal: "seal", KCommit: "commit",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// String names the kind for the trace file.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return "kind-" + strconv.Itoa(int(k))
}

// Phase ranks the pipeline stages a track passes through; within a
// track, events sort by (phase, seq), which is exactly the order the
// logical flow visits them (generation happens-before batch fate
// happens-before ingestion happens-before seal).
const (
	PhaseGen    uint8 = 1 // world generation
	PhaseBatch  uint8 = 2 // batch fate (truncate/corrupt/outage accounting)
	PhaseIngest uint8 = 3 // collector sink / shard aggregation
	PhaseSeal   uint8 = 4 // store seal
	PhaseCommit uint8 = 5 // dataset write / segment commit
	PhaseRun    uint8 = 6 // run-level milestones and summaries
)

// phaseNames maps phase ranks to display names.
var phaseNames = [...]string{
	PhaseGen: "gen", PhaseBatch: "batch", PhaseIngest: "ingest",
	PhaseSeal: "seal", PhaseCommit: "commit", PhaseRun: "run",
}

// PhaseName renders a phase rank for display; unknown ranks render as
// their number.
func PhaseName(p uint8) string {
	if int(p) < len(phaseNames) && phaseNames[p] != "" {
		return phaseNames[p]
	}
	return "phase-" + strconv.Itoa(int(p))
}

// TrackRun is the run-level track.
const TrackRun = "run"

// GroupTrack renders a world group index as a track name.
func GroupTrack(group int) string {
	// Fixed-width so lexicographic file order is numeric order.
	s := strconv.Itoa(group)
	for len(s) < 4 {
		s = "0" + s
	}
	return "g/" + s
}

// Event is one trace record. The identity triple (Track, Phase, Seq)
// must be assigned from logical stream positions — window indexes,
// session IDs, batch sequence numbers — so that the same run produces
// the same triples at any worker count.
type Event struct {
	// Track names the logical flow the event belongs to: a world group
	// (GroupTrack), a user-group key (sample.GroupKey.String()), or
	// TrackRun.
	Track string
	// Phase is the PhaseGen..PhaseRun stage rank.
	Phase uint8
	// Win is the 15-minute window index, -1 when not applicable.
	Win int32
	// Seq orders the event within (Track, Phase).
	Seq uint64
	// Kind types the event.
	Kind Kind
	// Stage names the emitting pipeline stage. It is never empty:
	// edgetrace joins events into stages by it.
	Stage string
	// Value is the event's logical magnitude (samples, attempts, ...).
	Value int64
	// Detail carries the fault class, cause, or annotation.
	Detail string
}

// FNV-1a constants, inlined rather than imported so ID never heap
// allocates — it runs on the Emit hot path.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnv64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// ID returns the event's deterministic identity under base: an FNV-1a
// fold of the logical coordinates mixed with the run's trace lineage.
// The same event in two runs of the same flags has the same ID, which
// is what lets obs exemplars name the event behind a metric outlier.
func (e Event) ID(base uint64) uint64 {
	h := fnvString(uint64(fnvOffset), e.Track)
	h = (h ^ uint64(e.Phase)) * fnvPrime
	h = (h ^ uint64(e.Kind)) * fnvPrime
	h = fnv64(h, uint64(e.Win))
	h = fnv64(h, e.Seq)
	h = fnvString(h, e.Stage)
	return h ^ base
}

// less orders events canonically: by track, phase, seq, then every
// remaining field so the order is total even for duplicate coordinates.
func less(a, b Event) bool {
	if a.Track != b.Track {
		return a.Track < b.Track
	}
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Win != b.Win {
		return a.Win < b.Win
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Stage != b.Stage {
		return a.Stage < b.Stage
	}
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.Detail < b.Detail
}

// DefaultBufCap is the per-buffer ring capacity. One buffer belongs to
// one goroutine. The bound is large enough that a full chaos run keeps
// every event (quarantine follow-ups emit one loss event per refused
// sample; drops void the byte-identity guarantee and edgetrace warns
// about them) and small enough to bound memory on a runaway run. Rings
// grow lazily (Buf), so a quiet run never pays it.
const DefaultBufCap = 1 << 20

// Recorder owns a run's trace: it hands out single-goroutine ring
// buffers (Buf) and flushes them deterministically. A nil *Recorder is
// valid everywhere and records nothing.
type Recorder struct {
	base   uint64
	bufCap int

	mu   sync.Mutex
	bufs []*Buf
}

// New returns a recorder whose event-identity base derives from the
// run seed through the rng lineage (consuming no draws from any
// generator the simulation uses).
func New(seed uint64) *Recorder {
	return &Recorder{base: rng.ChildAt(seed, "trace", 0).Uint64(), bufCap: DefaultBufCap}
}

// Base returns the event-identity base (0 on a nil recorder).
func (r *Recorder) Base() uint64 {
	if r == nil {
		return 0
	}
	return r.base
}

// SetBufCap overrides the per-buffer ring capacity for buffers handed
// out after the call (tests use tiny rings to exercise overwrite).
func (r *Recorder) SetBufCap(n int) {
	if r == nil || n < 1 {
		return
	}
	r.mu.Lock()
	r.bufCap = n
	r.mu.Unlock()
}

// Buf hands out a new ring buffer owned by exactly one goroutine: the
// caller emits into it without locks, and the recorder collects it at
// flush time (which must happen only after the owning goroutine is
// done). A nil recorder returns a nil (no-op) buffer.
func (r *Recorder) Buf() *Buf {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	// The ring grows lazily (append) up to max: a run with ten buffers
	// and a generous cap must not pay max*sizeof(Event) zeroed bytes per
	// buffer up front — that cost dwarfed the events themselves.
	b := &Buf{rec: r, max: r.bufCap}
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

// Dropped returns the total events overwritten across all rings — the
// flight-recorder loss counter. A non-zero value voids the
// byte-identity guarantee (which buffer overflowed depends on
// scheduling), so the file header records it and edgetrace warns.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, b := range r.bufs {
		n += b.dropped
	}
	return n
}

// Buf is a bounded event ring owned by a single goroutine. Emissions
// are lock-free appends; when the ring is full the oldest event is
// overwritten (flight-recorder semantics) and the drop is counted.
// Methods on a nil *Buf are no-ops, so callers hold pre-resolved
// buffers and pay one nil check when tracing is off.
type Buf struct {
	rec     *Recorder
	ev      []Event
	max     int // ring size ceiling; ev grows lazily toward it
	next    int
	dropped int64
}

// Emit records one event and returns its deterministic ID (0 on a nil
// buffer). Zero allocations once the ring is at capacity.
func (b *Buf) Emit(e Event) uint64 {
	if b == nil {
		return 0
	}
	if len(b.ev) < b.max {
		b.ev = append(b.ev, e)
	} else {
		b.ev[b.next] = e
		b.next++
		if b.next == len(b.ev) {
			b.next = 0
		}
		b.dropped++
	}
	return e.ID(b.rec.base)
}

// Span is one open logical span; End emits the matching KEnd.
type Span struct {
	b     *Buf
	track string
	phase uint8
	win   int32
	seq   uint64
	stage string
}

// Begin emits a KBegin and returns the span whose End closes it. On a
// nil buffer the span is inert.
func (b *Buf) Begin(track string, phase uint8, win int32, seq uint64, stage string) Span {
	if b == nil {
		return Span{}
	}
	b.Emit(Event{Track: track, Phase: phase, Win: win, Seq: seq, Kind: KBegin, Stage: stage})
	return Span{b: b, track: track, phase: phase, win: win, seq: seq, stage: stage}
}

// End emits the span's KEnd with its logical size and returns the end
// event's ID (0 on an inert span). Do not defer End inside a loop —
// the deferred ends pile up to function exit and the spans all close
// late.
func (sp Span) End(value int64) uint64 {
	if sp.b == nil {
		return 0
	}
	// End sorts after Begin at the same coordinates because KEnd > KBegin.
	return sp.b.Emit(Event{Track: sp.track, Phase: sp.phase, Win: sp.win, Seq: sp.seq,
		Kind: KEnd, Stage: sp.stage, Value: value})
}

// Loss books n samples lost to cause — the event Causes sums per
// bucket and reconciles against the faults Coverage ledger.
func (b *Buf) Loss(track string, phase uint8, win int32, seq uint64, stage, cause string, n int) {
	if b == nil || n <= 0 {
		return
	}
	b.Emit(Event{Track: track, Phase: phase, Win: win, Seq: seq, Kind: KLoss,
		Stage: stage, Value: int64(n), Detail: cause})
}
