package world

import (
	"repro/internal/obs"
)

// worldObs holds pre-resolved observability handles for the generator
// hot path. The zero value (nil handles) is a no-op, so an
// uninstrumented world pays one nil check per event.
type worldObs struct {
	reg        *obs.Registry // where a batch run registers its stream of days
	sessions   *obs.Counter
	windows    *obs.Counter
	groups     *obs.Counter
	outageLost *obs.Counter
	genStage   *obs.SpanTimer
	emit       *obs.SpanTimer
	draw       *obs.SpanTimer
	drawWait   *obs.SpanTimer
	specsDrawn *obs.Counter
	feedAhead  *obs.Gauge
	feedWait   *obs.SpanTimer
}

// Instrument registers generation metrics on reg: sessions, windows and
// groups completed, plus per-stage wall time for the parallel group
// simulation ("generate"), the hand-off to deliver ("emit", one span a
// day) and the workload draw-ahead ("draw": the time drawers spend
// drawing). A batch run (GenerateBatchesOf) registers its stream of
// days there when it starts: the days simulated and waiting on deliver
// as pipeline_queue_depth{stage="generate"}, its window as
// pipeline_queue_capacity{stage="generate"}. The draw-ahead adds the
// time simulations wait on an empty ring
// (world_draw_wait_seconds) and the specs drawn
// (world_specs_drawn_total): drawn minus the sessions simulated, kept
// or lost to an outage, is what was drawn ahead and never simulated, at
// most one ring (ringChunks × chunkSpecs) per group. A live feed adds
// the batches its generators have made and deliver has not yet taken
// (world_feed_batches_ahead, at most groups × WindowsPerDay, 0 once Run
// returns) and the time deliver waits on an empty feed
// (world_feed_wait_seconds): a feed that runs a day ahead says the
// consumer is the bottleneck, one that keeps it waiting says the
// generators are. A nil registry leaves the world uninstrumented.
func (w *World) Instrument(reg *obs.Registry) {
	w.obs = worldObs{
		reg:        reg,
		sessions:   reg.Counter("world_sessions_total"),
		windows:    reg.Counter("world_windows_total"),
		groups:     reg.Counter("world_groups_total"),
		outageLost: reg.Counter("world_outage_sessions_total"),
		genStage:   reg.Span(obs.L("world_stage_seconds", "stage", "generate"), "world"),
		emit:       reg.Span(obs.L("world_stage_seconds", "stage", "emit"), "world"),
		draw:       reg.Span(obs.L("world_stage_seconds", "stage", "draw"), "world"),
		drawWait:   reg.Span("world_draw_wait_seconds", "world"),
		specsDrawn: reg.Counter("world_specs_drawn_total"),
		feedAhead:  reg.Gauge("world_feed_batches_ahead"),
		feedWait:   reg.Span("world_feed_wait_seconds", "world"),
	}
	// The pinner's route-assignment counters ride along (§2.2.3's
	// preferred/alternate measurement split).
	w.pinner.PinnedPreferred = reg.Counter("edgefabric_pinned_preferred_total")
	w.pinner.PinnedAlternate = reg.Counter("edgefabric_pinned_alternate_total")
}
