// Package seggen is the segment-dataset generation pipeline: it runs a
// synthetic world through the collection filter and writes the result
// as a columnar segment store (internal/segstore), resuming from the
// dataset manifest after an interrupt and injecting deterministic
// faults at the batch and write surfaces. It writes through the world's
// one batch generator, world.GenerateBatchesOf: the world simulates the
// groups day by day on a pool, and Run encodes each day as it arrives
// and writes each group at its last day, in the order groups finish.
//
// The package exists so the pipeline has exactly one implementation
// and one driver, cmd/edgesim, with two uses: the whole world in one
// process, or (-pop I -pops N) one PoP's share of it per process, for
// the multi-PoP shipping topology in internal/ship. Its chunk writer,
// GroupWriter, is also the live daemon's (internal/studyd), so a spool
// sealed window by window is the dataset written group by group.
// Because generation is a pure function of (config, group index), the
// union of per-PoP datasets is byte-identical to the single-process
// dataset — the invariant the shipping layer's end-to-end tests pin.
package seggen

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/segstore"
	"repro/internal/trace"
	"repro/internal/world"
)

// ChunksPerGroup is how many segment-span chunks one group's windows
// cover. Segment IDs are group*ChunksPerGroup + chunk — a stable scheme
// a resumed run re-derives from the same flags, and ascending-ID order
// reproduces generation's (group, window) sample order. The
// scheme is global: a PoP process generating a subset of groups mints
// exactly the IDs the single-process run would for those groups.
func ChunksPerGroup(cfg world.Config) int {
	n := int((time.Duration(cfg.Days)*24*time.Hour + segstore.DefaultSegmentSpan - 1) / segstore.DefaultSegmentSpan)
	if n < 1 {
		n = 1
	}
	return n
}

// ChunkOf maps a sample's start to its segment-span chunk, clamped to
// [0, cpg) so boundary jitter cannot mint an out-of-range segment ID.
func ChunkOf(start time.Duration, cpg int) int {
	return min(max(int(start/segstore.DefaultSegmentSpan), 0), cpg-1)
}

// Origin is the dataset's identity, stamped into its manifest: the
// flags as given (cfg before world.New fills in defaults) and the fault
// plan, which together pin everything that shapes the dataset bytes —
// a resume with different flags is refused rather than silently
// interleaved. Every producer (edgesim, whole or one PoP of a fleet,
// edgestudyd's live mode) stamps the same string for the same flags:
// it is part of the manifest bytes their datasets are compared by.
func Origin(cfg world.Config, inj *faults.Injector) string {
	spec := ""
	if inj != nil {
		spec = inj.Plan().Spec()
	}
	return fmt.Sprintf("edgesim seed=%d groups=%d days=%d spw=%g plan=%q",
		cfg.Seed, cfg.Groups, cfg.Days, cfg.SessionsPerGroupWindow, spec)
}

// OriginChunksPerGroup recovers ChunksPerGroup from an Origin string,
// for a reader that has a dataset but no world config (a wire-mode
// daemon). An origin it cannot read means one chunk per group.
func OriginChunksPerGroup(origin string) int {
	for _, f := range strings.Fields(origin) {
		if v, ok := strings.CutPrefix(f, "days="); ok {
			if days, err := strconv.Atoi(v); err == nil && days > 0 {
				return ChunksPerGroup(world.Config{Days: days})
			}
		}
	}
	return 1
}

// Options configures one generation run.
type Options struct {
	// World is the configured world to generate from.
	World *world.World
	// Dir is the segment-dataset directory (created or resumed).
	Dir string
	// Origin pins the dataset identity; resume with a different origin
	// is refused (see segstore.Create).
	Origin string
	// Reg receives pipeline metrics (may be nil).
	Reg *obs.Registry
	// Workers is how many goroutines simulate groups (values below 1
	// mean 1); one more goroutine filters, encodes and writes their
	// days as they finish, overlapping the simulation at every count.
	// See Run. Each group being simulated also has one goroutine of its
	// own that draws its workload ahead of the simulation, so a
	// one-worker run keeps three goroutines busy: the drawer, the
	// simulation and the writer.
	Workers int
	// Injector injects deterministic batch/write faults (may be nil).
	Injector *faults.Injector
	// FailFast aborts on the first unrecoverable fault instead of
	// tombstoning and degrading.
	FailFast bool
	// Rec records the run's deterministic flight trace (may be nil).
	Rec *trace.Recorder
	// Groups restricts generation to these world-group indices (nil =
	// every group; non-nil empty = none) — the multi-PoP sharding hook:
	// a PoP process passes the groups it owns and the dataset holds
	// exactly their segments. An empty share still commits a manifest,
	// so the PoP can complete its (empty) shipping handshake.
	Groups []int
}

// Result reports one generation run.
type Result struct {
	// Stats are the merged collector totals (accepted, filtered).
	Stats collector.Stats
	// Written counts samples committed by this run.
	Written int
	// Resumed counts groups already fully accounted for by a previous
	// run's manifest and skipped.
	Resumed int
	// Coverage is the degradation ledger (nil without an injector).
	Coverage *faults.Coverage
}

// Run generates opt.World's dataset into the segment store at opt.Dir,
// resuming from its manifest if one exists: only groups the manifest
// does not fully account for (committed or tombstoned) are regenerated,
// and the finished directory is byte-identical to an uninterrupted
// run's at any worker count.
//
// Run is one world.GenerateBatchesOf over the groups left to write:
// opt.Workers goroutines simulate them day by day, and one writer
// goroutine takes each day as it arrives, each group's in day order.
// Every group's GroupWriter is made up front, in group order, drawing
// its batch fate and, unless the group is dropped, its write fate; under
// fail-fast the work list ends at the first group either fate makes
// unrecoverable, so exactly the groups before it are committed, at
// every worker count. A day's outage loss is booked, its samples run
// through the writer in place — the windows from the fate's cut on are
// lost, the hosting filter keeps the rest — and its chunk is encoded;
// at the group's last day Run books the fate, lands the group in one
// Write and commits the manifest once. The manifest orders segments by
// ID, so the order groups finish in changes no byte. At most
// pipeline.Window(opt.Workers) simulated days wait on the writer (they
// are pipeline_queue_depth{stage="generate"} on the world's registry),
// and each generator holds one more, so a slow write holds back a
// bounded number of days while the other generators go on simulating.
// An interrupt loses at most the groups not yet committed. A
// permanently failed group tombstones its segment IDs in the manifest
// — the loss is recorded in the dataset itself.
func Run(ctx context.Context, opt Options) (Result, error) {
	w, reg, inj, rec := opt.World, opt.Reg, opt.Injector, opt.Rec
	cpg := ChunksPerGroup(w.Cfg)
	sw, err := segstore.Create(opt.Dir, opt.Origin)
	if err != nil {
		return Result{}, err
	}
	// Publish the manifest before any group lands: an empty share (a
	// PoP that owns no groups) is still a valid dataset whose origin
	// the shipping handshake needs, and a fresh run interrupted before
	// its first group resumes instead of starting from a bare directory.
	if err := sw.Commit(); err != nil {
		return Result{}, err
	}

	owned := opt.Groups
	if owned == nil {
		owned = make([]int, len(w.Groups))
		for gi := range w.Groups {
			owned[gi] = gi
		}
	}

	// The work list: owned groups with any unaccounted chunk. (A group
	// whose chunk produced no samples is regenerated on resume —
	// harmless, the regeneration is deterministic and committed chunks
	// are skipped.)
	var todo []int
	for _, gi := range owned {
		for c := 0; c < cpg; c++ {
			if !sw.Committed(gi*cpg + c) {
				todo = append(todo, gi)
				break
			}
		}
	}
	resumed := len(owned) - len(todo)

	guard := faults.NewGuard(inj, opt.FailFast)
	units := make(map[int]*Unit, len(todo)) // each group's days encoded so far
	var unrecoverable error
	for i, gi := range todo {
		gw, err := NewGroupWriter(w.Cfg, gi, guard, reg)
		if err == nil && !gw.fate.Dropped() {
			err = guard.DrawWrite(gi)
		}
		if err != nil {
			todo, unrecoverable = todo[:i], err
			break
		}
		units[gi] = &Unit{w: gw}
	}

	var (
		total   collector.Stats
		written int
	)
	encSpan := reg.Span(obs.L("edgesim_stage_seconds", "stage", "encode"), "edgesim")
	writeSpan := reg.Span(obs.L("edgesim_stage_seconds", "stage", "write"), "edgesim")
	// One observation per encoded day and per written group of the same
	// span readings the counters above accumulate: the spread behind
	// their totals.
	encHist := reg.Histogram(obs.L("edgesim_group_stage_seconds", "stage", "encode"), nil)
	writeHist := reg.Histogram(obs.L("edgesim_group_stage_seconds", "stage", "write"), nil)

	tb := rec.Buf() // deliver's, which runs on one goroutine at a time
	err = cmp.Or(w.GenerateBatchesOf(ctx, todo, opt.Workers, func(b world.Batch) error {
		guard.Outage(b.Lost) // PoP outage suppressed windows at the source
		u := units[b.Group]
		gw := u.w
		sp := encSpan.Start()
		// Filter in place: deliver owns the batch, so the writer's buffer
		// is the day's own array, and each kept sample is written at or
		// behind the sample being read. Nothing needs the array once the
		// day's chunk is encoded.
		gw.kept = b.Samples[:0]
		gw.Add(b.Samples)
		u.extend(gw.Encode(b.Day, b.Day+1))
		gw.kept = nil
		encHist.ObserveDuration(sp.End())
		if b.Day < w.Cfg.Days-1 {
			return nil
		}

		delete(units, b.Group)
		gw.Book(tb)
		sp = writeSpan.Start()
		n, err := u.Write(ctx, sw, tb)
		if err == nil {
			err = sw.Commit()
		}
		writeHist.ObserveDuration(sp.End())
		total = total.Merge(gw.Stats())
		written += n
		return err
	}), unrecoverable)
	cov := guard.Coverage()
	cov.EmitTrace(tb)
	return Result{Stats: total, Written: written, Resumed: resumed, Coverage: cov}, err
}

// OwnedGroups partitions the world's group indices across a fleet of
// pops processes and returns the share pop owns: every group whose
// serving PoP hashes (FNV-1a) to this index. Sharding by PoP keeps
// each PoP's traffic — and therefore each user group, whose key
// includes the PoP — wholly inside one process, mirroring the paper's
// deployment; the union over all indices covers every group exactly
// once, so the shipped datasets reassemble the whole world.
func OwnedGroups(w *world.World, pop, pops int) []int {
	if pops <= 1 {
		owned := make([]int, len(w.Groups))
		for gi := range w.Groups {
			owned[gi] = gi
		}
		return owned
	}
	owned := []int{} // non-nil even when the share is empty: nil means "all" to Run
	for gi := range w.Groups {
		h := fnv.New32a()
		_, _ = h.Write([]byte(w.Groups[gi].PoP)) // hash.Hash.Write never errors
		if int(h.Sum32())%pops == pop {
			owned = append(owned, gi)
		}
	}
	return owned
}
