package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/ship"
	"repro/internal/world"
)

// pops is the fleet size of fleet_ship: two PoP processes' shares of
// one world, shipped concurrently to one merger.
const pops = 2

// buildPops writes each PoP's share of cfg under base.
func buildPops(cfg world.Config, base string) ([pops]string, error) {
	var dirs [pops]string
	for p := range dirs {
		dirs[p] = filepath.Join(base, fmt.Sprintf("pop%d", p))
		if _, err := writeDataset(cfg, dirs[p], 1, seggen.OwnedGroups(world.New(cfg), p, pops)); err != nil {
			return dirs, fmt.Errorf("writing pop %d share: %w", p, err)
		}
	}
	return dirs, nil
}

// fleetRun is what one fleet_ship operation reported.
type fleetRun struct {
	ship  [pops]ship.ShipStats
	merge ship.MergeStats
}

func (f fleetRun) slots() int { return f.ship[0].Shipped + f.ship[1].Shipped }

// fleetOp is fleet_ship's operation: a fresh merger over an empty
// spool on a unix socket and both PoPs shipping to it at once. The
// flush policy is the shipped default and is held fixed: every slot is
// acknowledged and its ack made durable on its own (ackBatch 1), and
// the merger commits its manifest once per segment. rec may be nil;
// with a recorder every Ship call and every ack-to-ack interval gets a
// span.
func fleetOp(rec *recorder, op int, dirs [pops]string, spool, sock string, ackBatch int) (fleetRun, error) {
	var run fleetRun
	root := rec.start(noSpan, op, "bench.fleet_ship")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	m, err := ship.NewMerger(ship.MergerOptions{SpoolDir: spool, ExpectPoPs: pops})
	if err != nil {
		return run, err
	}
	l, err := net.Listen("unix", sock)
	if err != nil {
		return run, fmt.Errorf("listening on %s: %w", sock, err)
	}
	served := make(chan error, 1)
	go func() { served <- m.Serve(ctx, l) }()

	var wg sync.WaitGroup
	var errs [pops]error
	for p := range dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := ship.ShipperOptions{Dir: dirs[p], Network: "unix", Addr: sock, PoP: p, Pops: pops, AckBatch: ackBatch}
			sp := rec.start(root, op, "ship.ship")
			if rec != nil {
				last := time.Now()
				opt.OnAck = func(int, bool) {
					rec.since(sp, op, "ship.slot", last, 1)
					last = time.Now()
				}
			}
			run.ship[p], errs[p] = ship.Ship(ctx, opt)
			sp.end(run.ship[p].Shipped)
			if errs[p] != nil {
				cancel() // the merger would wait for this PoP forever
			}
		}()
	}
	wg.Wait()
	serveErr := <-served
	run.merge = m.Stats()
	root.end(run.slots())
	return run, errors.Join(errs[0], errs[1], serveErr)
}

// checkFleet holds one operation to its reference: the spool is the
// single-process dataset byte for byte, and a clean plan needed no
// retry, reconnect or dedup.
func checkFleet(run fleetRun, spool string, c *corpus) error {
	for p, s := range run.ship {
		if s.Retries != 0 || s.Reconnects != 0 {
			return fmt.Errorf("pop %d needed %d retries and %d reconnects on a clean plan", p, s.Retries, s.Reconnects)
		}
	}
	if run.slots() != c.slots || run.merge.Dedup != 0 {
		return fmt.Errorf("shipped %d slots (%d deduplicated), corpus has %d", run.slots(), run.merge.Dedup, c.slots)
	}
	return sameDataset(spool, c.dir)
}

// resetFleet undoes an operation: the PoPs forget their acks and the
// spool goes, so the next operation ships everything again.
func resetFleet(dirs [pops]string, spool string) error {
	for _, d := range dirs {
		if err := os.Remove(filepath.Join(d, segstore.AcksName)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return os.RemoveAll(spool)
}

// frameProbe times the wire format alone, in memory: every segment of
// dir framed, written, read back and decoded, with no socket and no
// disk in the timed part. It returns nanoseconds per slot.
func frameProbe(dir string) (float64, error) {
	man, blobs, err := segmentBlobs(dir)
	if err != nil {
		return 0, err
	}
	var wire bytes.Buffer
	t0 := time.Now()
	for i, m := range man.Segments {
		wire.Reset()
		p, err := ship.EncodeShipPayload(ship.ShipHeader{SegID: m.ID, Hash: m.CRC, Meta: m}, blobs[i])
		if err != nil {
			return 0, err
		}
		if err := ship.WriteFrame(&wire, ship.FrameShip, p); err != nil {
			return 0, err
		}
		_, payload, err := ship.ReadFrame(&wire)
		if err != nil {
			return 0, err
		}
		if _, _, err := ship.DecodeShipPayload(payload); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / float64(len(man.Segments)), nil
}
