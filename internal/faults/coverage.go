package faults

import (
	"fmt"
	"sort"
)

// QuarantinedGroup records one isolated user group: the unit the
// pipeline withdrew from aggregation instead of poisoning the run.
type QuarantinedGroup struct {
	// Key identifies the group: sample.GroupKey.String() for a user
	// group, "world-group-%04d" for a world group's batch or dataset
	// segments.
	Key string
	// Reason is the fault class that forced the quarantine.
	Reason string
	// SamplesLost counts the group's samples withdrawn or skipped.
	SamplesLost int
}

// Coverage is the graceful-degradation ledger for one run: what was
// lost, where, and what it cost to keep the rest. Feamster &
// Livingood's rule for speed-measurement pipelines — report coverage
// alongside results — is enforced by rendering this next to every
// degraded report, so a reduced sample set is labeled, never silent.
// Counters partition by cause. One Guard owns a run's ledger and is
// its only writer; the sums commute and Finalize sorts the quarantine
// list, so the result is identical at any worker count.
type Coverage struct {
	// Spec is the canonical fault-plan spec that produced this run.
	Spec string
	// FailFast records the run's recovery stance.
	FailFast bool

	// SamplesLostOutage counts sessions never generated because their
	// serving PoP was down.
	SamplesLostOutage int
	// SamplesLostTruncated counts samples cut from truncated batches.
	SamplesLostTruncated int
	// SamplesLostDropped counts samples in batches dropped whole
	// (corruption or plan-listed permanent group failure).
	SamplesLostDropped int
	// SamplesLostQuarantined counts samples withdrawn from or refused by
	// quarantined user groups.
	SamplesLostQuarantined int

	// GroupsDropped counts world-group batches dropped before
	// aggregation; BatchesTruncated counts batches that lost a tail.
	GroupsDropped    int
	BatchesTruncated int

	// RetriesSpent counts backoff retries across every surface;
	// TransientRecovered counts faults that retry fully absorbed.
	RetriesSpent       int
	TransientRecovered int

	// Quarantined lists isolated groups, sorted by key.
	Quarantined []QuarantinedGroup
}

// SamplesLost totals losses across causes.
func (c *Coverage) SamplesLost() int {
	return c.SamplesLostOutage + c.SamplesLostTruncated + c.SamplesLostDropped + c.SamplesLostQuarantined
}

// Degraded reports whether the run lost data. Recovered transients
// alone do not degrade a run: retries cost time, not samples.
func (c *Coverage) Degraded() bool {
	return c.SamplesLost() > 0 || c.GroupsDropped > 0 || len(c.Quarantined) > 0
}

// Finalize sorts the quarantine list so ledgers render identically
// regardless of which goroutine booked which entry first.
func (c *Coverage) Finalize() {
	sort.Slice(c.Quarantined, func(i, j int) bool { return c.Quarantined[i].Key < c.Quarantined[j].Key })
}

// Summary renders the ledger as the one line a command prints when its
// run ends: DEGRADED with the losses by cause, or what the plan cost
// without losing data. Degraded results must be labeled, never silent.
func (c *Coverage) Summary() string {
	if c.Degraded() {
		return fmt.Sprintf("DEGRADED under fault plan %q — lost %d samples (outage %d, truncated %d, dropped %d); %d group batches quarantined; %d retries spent, %d transient faults recovered",
			c.Spec, c.SamplesLost(), c.SamplesLostOutage, c.SamplesLostTruncated, c.SamplesLostDropped,
			len(c.Quarantined), c.RetriesSpent, c.TransientRecovered)
	}
	return fmt.Sprintf("fault plan %q injected no data loss (%d retries spent, %d transient faults recovered)",
		c.Spec, c.RetriesSpent, c.TransientRecovered)
}
