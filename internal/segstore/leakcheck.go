package segstore

import "sync/atomic"

// Leak accounting — the one check of the batch ownership protocol
// (DESIGN.md §13): every pooled batch a scan hands out is released
// exactly once. The leak-checked test mains of segstore, study,
// cmd/edgesim and cmd/edgestat assert it, and their tests drive every
// production release, error paths included (EXPERIMENTS.md "Batch
// ownership probe"). The counters are always on — two uncontended
// atomic adds per batch, invisible next to a segment decode — so any
// test can assert the invariant; poisoning is opt-in because it
// deliberately corrupts released batches.
var (
	// outstanding counts pooled batches currently out of their scan
	// pool: +1 per acquisition, −1 when the last reference releases.
	// Zero after a completed scan or the pool is leaking capacity.
	outstanding atomic.Int64

	// doubleReleases counts Release calls beyond a batch's or view's
	// final one — each is a latent pool corruption that used to be
	// silent (a released view still aliases recycled parent arrays).
	doubleReleases atomic.Int64

	// leakPoison, when enabled, makes a released owned batch
	// unmistakably dead: row count −1 and zeroed dictionary indexes, so
	// a use-after-Release reads garbage loudly (empty loops, panics on
	// emptied dictionaries) instead of rows from whatever batch the
	// pool recycled the arrays into.
	leakPoison atomic.Bool
)

// SetLeakCheck switches batch poisoning on or off (see LeakStats); the
// leak-checked test mains enable it.
func SetLeakCheck(on bool) { leakPoison.Store(on) }

// LeakCheckEnabled reports whether released batches are poisoned.
func LeakCheckEnabled() bool { return leakPoison.Load() }

// LeakStats returns the pooled batches currently outstanding and the
// cumulative double-release count. A correct run ends with outstanding
// == 0 (every acquired batch released) and never double-releases.
func LeakStats() (outstandingBatches, doubleReleased int64) {
	return outstanding.Load(), doubleReleases.Load()
}

// poison marks a released owned batch as dead (leak-check mode only):
// Len goes negative and the dictionaries empty, so stale views or
// identifiers fail loudly instead of silently reading recycled rows.
// reset repairs all of it on the next acquisition.
func (b *ColumnBatch) poison() {
	b.n = -1
	for _, c := range [...]*DictColumn{&b.PoP, &b.Prefix, &b.Country, &b.Continent, &b.Proto, &b.Route} {
		for i := range c.Idx {
			c.Idx[i] = 0
		}
		c.Dict = nil
	}
}
