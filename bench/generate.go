package main

import (
	"context"
	"fmt"

	"repro/internal/collector"
	"repro/internal/sample"
	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/world"
)

// generateOp is generate_write's operation: one seggen.Run of cfg at
// workers 1 into a fresh directory. It returns the samples the world
// generated.
func generateOp(cfg world.Config, dir string) (int, error) {
	res, err := writeDataset(cfg, dir, 1, nil)
	return res.Stats.Received, err
}

// genCounts is what one decomposed generation counted at its layer
// boundaries.
type genCounts struct {
	raw, kept int
	bytes     int64
}

// generateOpDecomposed is generateOp taken apart: the calls seggen.Run
// makes for a clean plan at workers 1 — generate a group, run it
// through the collection filter, encode one segment per day, append
// them and commit the manifest — with a span around each. Generation
// is what is left of the world.generate span once the filter and the
// encoder inside it are taken out (and includes any wait for the
// committer to take the previous group). The directory must come out byte for byte
// the dataset seggen.Run writes.
func generateOpDecomposed(rec *recorder, op int, cfg world.Config, dir string) (genCounts, error) {
	var n genCounts
	root := rec.start(noSpan, op, "bench.generate_write")
	w := world.New(cfg)
	cpg := seggen.ChunksPerGroup(cfg)
	chunkOf := func(s *sample.Sample) int {
		return min(max(int(s.Start/segstore.DefaultSegmentSpan), 0), cpg-1)
	}

	type chunk struct {
		id   int
		blob []byte
		meta segstore.SegmentMeta
	}
	sw, err := segstore.Create(dir, originOf(cfg))
	if err != nil {
		return n, err
	}
	// seggen.Run commits on a goroutine of its own, one group behind
	// the generator, so a group's file writes overlap the next group's
	// simulation. The decomposition keeps that shape: taken apart onto
	// one goroutine it would be a slower program, not the same one.
	groups := make(chan []chunk, 1) // one group in flight, as seggen's stream at workers 1
	committed := make(chan error, 1)
	go func() {
		var err error
		commit := func(chunks []chunk) {
			sp := rec.start(root, op, "segstore.commit")
			defer func() { sp.end(len(chunks)) }()
			for _, c := range chunks {
				if err = sw.Add(c.id, c.blob, c.meta); err != nil {
					return
				}
			}
			err = sw.Commit()
		}
		commit(nil) // the empty manifest a fresh dataset starts from
		for chunks := range groups {
			if err == nil {
				commit(chunks)
			}
		}
		committed <- err
	}()

	gen := rec.start(root, op, "world.generate")
	err = w.GenerateBatches(context.Background(), 1, func(b world.Batch) error {
		sp := rec.start(gen, op, "collector.filter")
		var kept []sample.Sample
		c := collector.New(collector.SliceSink(&kept))
		for _, s := range b.Samples {
			c.Offer(s)
		}
		sp.end(len(b.Samples))
		n.raw += len(b.Samples)
		n.kept += len(kept)

		var chunks []chunk
		sp = rec.start(gen, op, "segstore.encode")
		for lo := 0; lo < len(kept); {
			cid := chunkOf(&kept[lo])
			hi := lo + 1
			for hi < len(kept) && chunkOf(&kept[hi]) == cid {
				hi++
			}
			blob, meta := segstore.EncodeSegment(kept[lo:hi])
			chunks = append(chunks, chunk{id: b.Group*cpg + cid, blob: blob, meta: meta})
			n.bytes += int64(len(blob))
			lo = hi
		}
		sp.end(len(kept))
		groups <- chunks
		return nil
	})
	gen.end(n.raw)
	close(groups)
	if cerr := <-committed; err == nil {
		err = cerr
	}
	root.end(n.raw)
	if err == nil && n.kept == 0 {
		err = fmt.Errorf("generation kept no samples")
	}
	return n, err
}
