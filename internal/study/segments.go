package study

import (
	"context"
	"time"

	"repro/internal/agg"
	"repro/internal/sample"
	"repro/internal/segstore"
)

// Segments is the study of a segment dataset directory, kept open: it
// holds what the segments folded so far aggregated into and advances
// with the directory's manifest, folding only what the manifest has
// gained. A daemon that commits a chunk pays for the chunk, not for the
// spool (internal/studyd); FromSegments is one opened and advanced once.
//
// What makes folding a delta exact is that nothing a study holds depends
// on how user groups interleave: store cells and collector counts belong
// to one group each, and the Overview is a merge of per-group folds
// (analysis.Overview). So a manifest extends the folded state when every
// folded segment is still there unchanged and each new one holds only
// user groups that are new or that it continues: a higher segment ID than
// the group's folded segments (manifest order is fold order) and a first
// window after their last window, because an analysis compacts the cell
// digests it reads and a cell must have taken all its samples by then.
// The groups a segment holds are read off the manifest's index: the
// product of its PoP, prefix and country sets, which is one group for a
// segment written per group and a few for one that spans groups (a world
// group whose PoP is remapped mid-day writes such a chunk). Any other
// manifest — and any error — makes the study fold again from nothing.
// The choice is read off the manifest; there is nothing to set.
//
// The analyses extend the same way: a window that has closed is compared
// once (analysis.Series), so the study keeps the last Advance's Results
// beside the sink and the next Advance's comparison series extend them —
// by the windows the new segments opened, and by whatever those send an
// extension back over. The Results go wherever the sink goes: a rebuild
// reason or an error drops both.
//
// Only a one-shard ingest with neither a plan nor a trace can take more
// samples once analysed — N shards are merged into one store, and a plan
// or a trace closes its ledger at finish — so a study whose options ask
// for Workers above 1, a Plan or a Trace keeps nothing and every Advance
// folds, and compares, from nothing.
//
// A Segments is not safe for concurrent use, and the Results of an
// Advance alias its state: their Store and Overview are the study's own,
// which the next Advance folds more samples into, and their series share
// their points with the ones the next Advance returns. Read them before
// the next Advance, on the goroutine that made it (internal/studyd
// renders under the lock it advances under).
type Segments struct {
	dir string
	opt Options

	in     *ingest                  // holds every folded segment's samples; nil: nothing kept
	last   *Results                 // the last Advance's, analysed over in's store: what the next one's analyses extend
	folded map[int]uint32           // folded segment ID → CRC
	groups map[sample.GroupKey]mark // where each user group's folded segments end
	// unindexed is set once a folded segment's manifest entry does not
	// name its groups: nobody can say where they end, so nothing extends it.
	unindexed bool
}

// mark is the end of one user group's folded segments.
type mark struct {
	id  int // the highest folded segment ID
	win int // the last window a folded segment covers
}

// OpenSegments returns the study of dir under opt with nothing folded;
// the directory is first read by Advance.
func OpenSegments(dir string, opt Options) *Segments {
	s := &Segments{dir: dir, opt: opt}
	s.reset()
	return s
}

func (s *Segments) reset() {
	s.in, s.last, s.unindexed = nil, nil, false
	s.folded = make(map[int]uint32)
	s.groups = make(map[sample.GroupKey]mark)
}

// Advance brings the study to the directory's current manifest and runs
// every analysis over the result. rebuilt is empty when the manifest
// extended what was folded (an Advance with nothing folded extends
// nothing, whatever the manifest), and otherwise says why the study
// folded again from nothing: "segment_gone", "crc_changed",
// "out_of_order" or "unindexed".
func (s *Segments) Advance(ctx context.Context) (res *Results, rebuilt string, err error) {
	r, err := segstore.Open(s.dir)
	if err != nil {
		return nil, "", err
	}
	defer func() {
		if cerr := r.Close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
		if err != nil || s.in == nil {
			s.reset() // half-folded, or an ingest that does not keep: nothing to build on
		}
	}()
	man := r.Manifest()
	if rebuilt = s.outgrownBy(man); rebuilt != "" {
		s.reset()
	}
	var segs []segstore.SegmentMeta
	for _, m := range man.Segments {
		if _, ok := s.folded[m.ID]; !ok {
			segs = append(segs, m)
		}
	}
	res, s.in, err = run(ctx, &segmentSource{r: r, segs: segs}, s.opt, s.in, s.last)
	if err != nil {
		return nil, rebuilt, err
	}
	s.last = res
	for _, m := range segs {
		s.folded[m.ID] = m.CRC
		keys, ok := groupsOf(&m)
		s.unindexed = s.unindexed || !ok
		for _, k := range keys {
			g := s.groups[k]
			s.groups[k] = mark{id: max(g.id, m.ID), win: max(g.win, agg.WindowOf(time.Duration(m.StartMax)))}
		}
	}
	return res, rebuilt, nil
}

// Folded is how many segments the study holds the samples of.
func (s *Segments) Folded() int { return len(s.folded) }

// outgrownBy reports why man does not extend the folded segments, or ""
// when it does.
func (s *Segments) outgrownBy(man *segstore.Manifest) string {
	if len(s.folded) == 0 {
		return ""
	}
	still := 0
	for _, m := range man.Segments {
		if crc, ok := s.folded[m.ID]; ok {
			if crc != m.CRC {
				return "crc_changed"
			}
			still++
		}
	}
	if still < len(s.folded) {
		return "segment_gone"
	}
	for _, m := range man.Segments {
		if _, ok := s.folded[m.ID]; ok {
			continue
		}
		keys, ok := groupsOf(&m)
		if s.unindexed || !ok {
			return "unindexed"
		}
		for _, k := range keys {
			if g, ok := s.groups[k]; ok && (m.ID < g.id || agg.WindowOf(time.Duration(m.StartMin)) <= g.win) {
				return "out_of_order"
			}
		}
	}
	return ""
}

// groupsOf lists the user groups m's rows can belong to, by the
// manifest's index: every combination of its PoPs, prefixes and
// countries. ok is false when a set is missing — a manifest from before
// the prefix index — and the index names nothing.
func groupsOf(m *segstore.SegmentMeta) (keys []sample.GroupKey, ok bool) {
	for _, pop := range m.PoPs {
		for _, prefix := range m.Prefixes {
			for _, country := range m.Countries {
				keys = append(keys, sample.GroupKey{PoP: pop, Prefix: prefix, Country: country})
			}
		}
	}
	return keys, len(keys) > 0
}
