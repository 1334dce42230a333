package ship

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/study"
	"repro/internal/world"
)

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// testCfg is the fleet-wide world every e2e test generates from: small
// enough to ship in milliseconds, large enough that every PoP owns
// several groups and chaos plans have segments to chew on.
var testCfg = world.Config{Seed: 7, Groups: 10, Days: 2, SessionsPerGroupWindow: 3}

// testOrigin is the canonical origin edgesim would stamp for testCfg
// under genPlan — the string the whole fleet (and the golden dataset)
// must agree on.
func testOrigin(genPlan *faults.Plan) string {
	return fmt.Sprintf("edgesim seed=%d groups=%d days=%d spw=%g plan=%q",
		testCfg.Seed, testCfg.Groups, testCfg.Days, testCfg.SessionsPerGroupWindow, genPlan.Spec())
}

// genDataset runs the shared segment pipeline into dir for one PoP's
// share of the world (pops <= 1 generates everything — the golden).
func genDataset(t testing.TB, dir, genSpec string, pop, pops, workers int) string {
	t.Helper()
	plan, err := faults.ParsePlan(genSpec)
	if err != nil {
		t.Fatalf("gen plan: %v", err)
	}
	w := world.New(testCfg)
	inj := faults.NewInjector(plan, testCfg.Seed)
	if inj != nil {
		w.PoPDown = inj.Outage
	}
	origin := testOrigin(inj.Plan())
	_, err = seggen.Run(context.Background(), seggen.Options{
		World: w, Dir: dir, Origin: origin, Workers: workers,
		Injector: inj, Groups: seggen.OwnedGroups(w, pop, pops),
	})
	if err != nil {
		t.Fatalf("generate %s: %v", dir, err)
	}
	return origin
}

// startMerger listens on a loopback port and serves until ctx is
// cancelled or expect PoPs finish; wait returns Serve's error.
func startMerger(t testing.TB, ctx context.Context, spool string, expect int) (*Merger, string, func() error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	m, err := NewMerger(MergerOptions{SpoolDir: spool, ExpectPoPs: expect})
	if err != nil {
		t.Fatalf("NewMerger: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- m.Serve(ctx, l) }()
	return m, l.Addr().String(), func() error { return <-errc }
}

// dirsEqual asserts got holds byte-identical copies of every file in
// want and nothing else — the repo's merged-equals-single-process
// invariant, checked at the strongest level (the dataset bytes the
// report is a pure function of). The shipper-side ack log is excluded:
// it is shipping state, not dataset content.
func dirsEqual(t *testing.T, want, got string) {
	t.Helper()
	names := func(dir string) []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		var out []string
		for _, e := range ents {
			if e.Name() == segstore.AcksName {
				continue
			}
			out = append(out, e.Name())
		}
		return out
	}
	wn, gn := names(want), names(got)
	if fmt.Sprint(wn) != fmt.Sprint(gn) {
		t.Fatalf("file sets differ:\n  want %v\n  got  %v", wn, gn)
	}
	for _, n := range wn {
		wb, err := os.ReadFile(filepath.Join(want, n))
		if err != nil {
			t.Fatal(err)
		}
		gb, err := os.ReadFile(filepath.Join(got, n))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("%s differs: %d vs %d bytes", n, len(wb), len(gb))
		}
	}
}

// renderReport folds a dataset into the paper report, with the
// wall-clock footer stripped (the only non-deterministic line).
func renderReport(t *testing.T, dir string) string {
	t.Helper()
	res, err := study.FromSegments(context.Background(), dir, study.Options{})
	if err != nil {
		t.Fatalf("FromSegments(%s): %v", dir, err)
	}
	var buf bytes.Buffer
	res.WriteReport(&buf)
	var kept []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "Generated and analysed") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// shipPop runs one PoP's shipping phase against the merger at addr.
func shipPop(ctx context.Context, dir, addr, shipSpec string, pop, pops int, onAck func(int, bool)) (ShipStats, error) {
	plan, err := faults.ParsePlan(shipSpec)
	if err != nil {
		return ShipStats{}, err
	}
	return Ship(ctx, ShipperOptions{
		Dir: dir, Addr: addr, PoP: pop, Pops: pops,
		Injector: faults.NewInjector(plan, testCfg.Seed), OnAck: onAck,
	})
}

// TestFleetMergeByteIdentical is the tentpole invariant with a clean
// wire: three PoPs generate disjoint shares of the world, ship
// concurrently, and the merger's spool — and the paper report rendered
// from it — must be byte-identical to a single-process run.
func TestFleetMergeByteIdentical(t *testing.T) {
	root := t.TempDir()
	golden := filepath.Join(root, "golden")
	genDataset(t, golden, "", 0, 1, 2)

	const pops = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, addr, wait := startMerger(t, ctx, filepath.Join(root, "spool"), pops)

	var wg sync.WaitGroup
	errs := make([]error, pops)
	for p := 0; p < pops; p++ {
		dir := filepath.Join(root, fmt.Sprintf("pop%d", p))
		genDataset(t, dir, "", p, pops, 2)
		wg.Add(1)
		go func(p int, dir string) {
			defer wg.Done()
			_, errs[p] = shipPop(ctx, dir, addr, "", p, pops, nil)
		}(p, dir)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("pop %d ship: %v", p, err)
		}
	}
	if err := wait(); err != nil {
		t.Fatalf("merger: %v", err)
	}

	st := m.Stats()
	if st.Dedup != 0 || st.HashConflicts != 0 {
		t.Fatalf("clean wire produced dedup=%d conflicts=%d", st.Dedup, st.HashConflicts)
	}
	if st.PopsDone != pops {
		t.Fatalf("PopsDone = %d, want %d", st.PopsDone, pops)
	}
	dirsEqual(t, golden, filepath.Join(root, "spool"))
	if g, s := renderReport(t, golden), renderReport(t, filepath.Join(root, "spool")); g != s {
		t.Error("merged report differs from single-process report")
	}
}

// TestChaosShipping is the chaos acceptance gate: duplicate-delivery
// and drop-then-retry wire plans, at worker counts 1, 2 and 4, must
// leave the spool byte-identical to the golden dataset — and under the
// duplicate plan the merger's dedup counter must equal the injected
// duplicate count exactly.
func TestChaosShipping(t *testing.T) {
	root := t.TempDir()
	golden := filepath.Join(root, "golden")
	genDataset(t, golden, "", 0, 1, 2)

	plans := []struct {
		name       string
		spec       string
		exactDedup bool
	}{
		{"dup-delivery", "seed=3;ship-dup=0.6;retries=6;retry-base=20us", true},
		{"drop-then-retry", "seed=5;ship-drop=0.3;ship-trunc=0.2;retries=12;retry-base=20us", false},
	}
	for _, plan := range plans {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", plan.name, workers), func(t *testing.T) {
				dir := filepath.Join(root, fmt.Sprintf("%s-w%d", plan.name, workers))
				const pops = 2
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				m, addr, wait := startMerger(t, ctx, filepath.Join(dir, "spool"), pops)

				var wg sync.WaitGroup
				stats := make([]ShipStats, pops)
				errs := make([]error, pops)
				for p := 0; p < pops; p++ {
					popDir := filepath.Join(dir, fmt.Sprintf("pop%d", p))
					genDataset(t, popDir, "", p, pops, workers)
					wg.Add(1)
					go func(p int, popDir string) {
						defer wg.Done()
						stats[p], errs[p] = shipPop(ctx, popDir, addr, plan.spec, p, pops, nil)
					}(p, popDir)
				}
				wg.Wait()
				for p, err := range errs {
					if err != nil {
						t.Fatalf("pop %d ship: %v", p, err)
					}
				}
				if err := wait(); err != nil {
					t.Fatalf("merger: %v", err)
				}

				dirsEqual(t, golden, filepath.Join(dir, "spool"))
				injected, retries := 0, 0
				for _, st := range stats {
					injected += st.DupsInjected
					retries += st.Retries
				}
				st := m.Stats()
				if st.HashConflicts != 0 {
					t.Fatalf("chaos produced %d hash conflicts", st.HashConflicts)
				}
				if plan.exactDedup {
					if injected == 0 {
						t.Fatal("duplicate plan injected nothing; the test is vacuous")
					}
					if st.Dedup != injected {
						t.Fatalf("merger dedup = %d, want exactly the %d injected duplicates", st.Dedup, injected)
					}
				} else {
					if retries == 0 {
						t.Fatal("drop plan spent no retries; the test is vacuous")
					}
				}
			})
		}
	}
}

// TestKillAndRestartMidShipment is the crash-safety gate: a PoP
// cancelled mid-shipment — and a merger restarted over its spool —
// must resume from the durable ack watermark, re-generate nothing,
// re-ship only unacked slots, and still converge to the golden bytes.
func TestKillAndRestartMidShipment(t *testing.T) {
	root := t.TempDir()
	golden := filepath.Join(root, "golden")
	genDataset(t, golden, "", 0, 1, 2)
	pop := filepath.Join(root, "pop")
	origin := genDataset(t, pop, "", 0, 1, 2)
	spool := filepath.Join(root, "spool")

	// Phase 1: ship until the third durable ack, then "crash" the PoP.
	ctx1, cancel1 := context.WithCancel(context.Background())
	mctx, mcancel := context.WithCancel(context.Background())
	_, addr, wait := startMerger(t, mctx, spool, 1)
	acked := 0
	st1, err := shipPop(ctx1, pop, addr, "", 0, 1, func(int, bool) {
		acked++
		if acked == 3 {
			cancel1()
		}
	})
	if err == nil {
		t.Fatal("cancelled ship returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ship: %v, want context.Canceled", err)
	}
	if st1.Shipped < 3 {
		t.Fatalf("shipped %d slots before crash, want >= 3", st1.Shipped)
	}
	acks, err := segstore.LoadAcks(pop, origin)
	if err != nil {
		t.Fatal(err)
	}
	if acks.Len() < 3 {
		t.Fatalf("ack log holds %d acks after crash, want >= 3 (acks must be durable before slots retire)", acks.Len())
	}
	// Crash the merger too; its spool manifest is the only state it keeps.
	mcancel()
	if err := wait(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("merger shutdown: %v", err)
	}

	// Phase 2: both sides restart cold. The merger reseeds its dedup
	// table from the spool manifest; the shipper skips acked slots and
	// re-ships anything whose ack was lost in flight.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	m2, addr2, wait2 := startMerger(t, ctx2, spool, 1)
	st2, err := shipPop(ctx2, pop, addr2, "", 0, 1, nil)
	if err != nil {
		t.Fatalf("resumed ship: %v", err)
	}
	if st2.AlreadyAcked < 3 {
		t.Fatalf("resume skipped %d slots, want >= 3", st2.AlreadyAcked)
	}
	if err := wait2(); err != nil {
		t.Fatalf("merger: %v", err)
	}
	if st := m2.Stats(); st.HashConflicts != 0 {
		t.Fatalf("resume produced %d hash conflicts", st.HashConflicts)
	}
	dirsEqual(t, golden, spool)
}

// TestTombstonesShipAndMerge: generation-time losses (quarantined
// groups under a corruption plan) must ship as tombstones and land in
// the spool manifest exactly as a single degraded run would record
// them.
func TestTombstonesShipAndMerge(t *testing.T) {
	const genPlan = "seed=11;corrupt=0.3;retries=3;retry-base=10us"
	root := t.TempDir()
	golden := filepath.Join(root, "golden")
	genDataset(t, golden, genPlan, 0, 1, 2)
	man, err := loadManifestChecked(golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Tombstones) == 0 {
		t.Fatal("corruption plan produced no tombstones; pick a harsher plan")
	}

	const pops = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, addr, wait := startMerger(t, ctx, filepath.Join(root, "spool"), pops)
	for p := 0; p < pops; p++ {
		dir := filepath.Join(root, fmt.Sprintf("pop%d", p))
		genDataset(t, dir, genPlan, p, pops, 2)
		if _, err := shipPop(ctx, dir, addr, "", p, pops, nil); err != nil {
			t.Fatalf("pop %d ship: %v", p, err)
		}
	}
	if err := wait(); err != nil {
		t.Fatalf("merger: %v", err)
	}
	if st := m.Stats(); st.Tombstones != len(man.Tombstones) {
		t.Fatalf("merged %d tombstones, golden has %d", st.Tombstones, len(man.Tombstones))
	}
	dirsEqual(t, golden, filepath.Join(root, "spool"))
}

// TestMergerRefusesOriginMismatch: two different invocations' datasets
// must never interleave in one spool.
func TestMergerRefusesOriginMismatch(t *testing.T) {
	root := t.TempDir()
	a := filepath.Join(root, "a")
	genDataset(t, a, "", 0, 1, 1)
	b := filepath.Join(root, "b")
	genDataset(t, b, "seed=2;truncate=0.2", 0, 1, 1) // different plan ⇒ different origin

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, addr, _ := startMerger(t, ctx, filepath.Join(root, "spool"), 2)
	if _, err := shipPop(ctx, a, addr, "", 0, 2, nil); err != nil {
		t.Fatalf("first origin: %v", err)
	}
	_, err := shipPop(ctx, b, addr, "", 1, 2, nil)
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("mismatched origin shipped: err = %v, want refusal", err)
	}
}

// TestHashConflictRefused: a shipment claiming a committed slot with
// different bytes is an upstream bug, never silently resolved.
func TestHashConflictRefused(t *testing.T) {
	m, err := NewMerger(MergerOptions{SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.adopt(Hello{Origin: "test origin", Pops: 1}); err != nil {
		t.Fatal(err)
	}
	blob := []byte("segment bytes v1")
	hdr := ShipHeader{SegID: 5, Hash: crcOf(blob), Meta: segstore.SegmentMeta{Bytes: int64(len(blob)), CRC: crcOf(blob), Samples: 1}}
	if dup, err := m.commitSegment(hdr, blob); err != nil || dup {
		t.Fatalf("first commit: dup=%v err=%v", dup, err)
	}
	if dup, err := m.commitSegment(hdr, blob); err != nil || !dup {
		t.Fatalf("replay: dup=%v err=%v, want idempotent dedup", dup, err)
	}
	other := []byte("segment bytes v2")
	conflict := ShipHeader{SegID: 5, Hash: crcOf(other), Meta: segstore.SegmentMeta{Bytes: int64(len(other)), CRC: crcOf(other), Samples: 1}}
	if _, err := m.commitSegment(conflict, other); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("conflicting bytes committed: err = %v", err)
	}
	if st := m.Stats(); st.Dedup != 1 || st.HashConflicts != 1 {
		t.Fatalf("stats = %+v, want Dedup=1 HashConflicts=1", st)
	}
	// A tombstone for a slot holding data (and vice versa) is the same
	// class of upstream bug.
	if _, err := m.commitTombstone(Tomb{ID: 5, Reason: "late loss"}); err == nil {
		t.Fatal("tombstone over committed segment accepted")
	}
}
