package studyd

import (
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/obs"
)

// cacheEntries bounds the report cache: rendered responses, each the
// size of one report, so the bound is on memory the cache holds, not on
// the folds that fill it (studyd_folds_inflight counts those).
const cacheEntries = 64

// swrCache is the report cache: an LRU of rendered responses keyed by
// canonical query, with stale-while-revalidate semantics keyed on the
// spool version. A fresh entry (built at the current version) is
// served as-is. A stale entry is served immediately — readers never
// block on re-aggregation — while at most one background revalidation
// per key rebuilds it at the newer version. A missing entry blocks,
// but concurrent requests for the same key share one computation
// (singleflight), so a thundering herd costs one aggregation.
//
// Entries are immutable []byte values swapped in whole under the
// lock: a reader either sees the old bytes or the new bytes, never a
// torn response. The version is captured BEFORE the compute reads the
// spool, so a commit racing the rebuild leaves the entry stale (and a
// later request revalidates again) rather than wrongly fresh. Each body
// carries the entity tag it was installed under, so bytes served stale
// are still named by the version they were built at.
type swrCache struct {
	mu      sync.Mutex
	max     int
	clock   int64 // LRU clock: bumps on every touch
	entries map[string]*cacheEntry

	cHit    *obs.Counter
	cMiss   *obs.Counter
	cStale  *obs.Counter
	cReval  *obs.Counter
	cEvict  *obs.Counter
	cErrors *obs.Counter
}

type cacheEntry struct {
	body    []byte
	etag    string // entityTag of body, set with it
	version int64  // spool version the body was built at
	used    int64  // LRU clock at last touch
	// inflight, when non-nil, is the one pending computation for this
	// key: a blocking miss's waiters share it, and a stale entry's
	// background revalidation holds it so at most one rebuild runs.
	inflight chan struct{}
	err      error // error of a failed blocking compute (not cached)
}

func newSWRCache(max int, reg *obs.Registry) *swrCache {
	c := &swrCache{
		max:     max,
		entries: make(map[string]*cacheEntry),
		cHit:    reg.Counter("studyd_report_cache_hits_total"),
		cMiss:   reg.Counter("studyd_report_cache_misses_total"),
		cStale:  reg.Counter("studyd_report_cache_stale_served_total"),
		cReval:  reg.Counter("studyd_report_cache_revalidations_total"),
		cEvict:  reg.Counter("studyd_report_cache_evictions_total"),
		cErrors: reg.Counter("studyd_report_cache_errors_total"),
	}
	reg.GaugeFunc("studyd_report_cache_entries", func() float64 { return float64(c.Len()) })
	return c
}

// entityTag is the strong validator of a body built for key at spool
// version: quoted, as the ETag header carries it. The version and the
// key name the entry; the body's checksum is what makes the tag strong
// beyond one process, because a restarted daemon counts versions from
// zero again over a spool that has moved on.
func entityTag(version int64, key string, body []byte) string {
	return fmt.Sprintf(`"%d-%08x-%08x"`, version, crc32.ChecksumIEEE([]byte(key)), crc32.ChecksumIEEE(body))
}

// Serve returns the response for key at spool version now, and its
// entity tag, computing it with compute when absent. The returned state
// is "hit" (fresh), "stale" (served stale, revalidation running), or
// "miss" (computed on this call). compute must be pure with respect to
// the spool contents at the version it observes.
func (c *swrCache) Serve(key string, now int64, compute func() ([]byte, error)) (body []byte, etag, state string, err error) {
	c.mu.Lock()
	e, ok := c.entries[key]

	if ok && e.body != nil {
		c.clock++
		e.used = c.clock
		if e.version >= now {
			body, etag = e.body, e.etag
			c.mu.Unlock()
			c.cHit.Inc()
			return body, etag, "hit", nil
		}
		// Stale: serve the old bytes now, rebuild in the background —
		// unless a rebuild for this key is already in flight.
		body, etag = e.body, e.etag
		if e.inflight == nil {
			done := make(chan struct{})
			e.inflight = done
			c.cReval.Inc()
			// The rebuild is fire-and-forget by design: it outlives this
			// request (and its context) so one slow re-aggregation can
			// serve every later reader.
			go func() {
				body, cerr := compute()
				etag := entityTag(now, key, body)
				c.mu.Lock()
				if cur := c.entries[key]; cur == e {
					e.inflight = nil
					if cerr == nil {
						e.body, e.etag, e.version = body, etag, now
					}
				}
				c.mu.Unlock()
				if cerr != nil {
					c.cErrors.Inc()
				}
				close(done)
			}()
		}
		c.mu.Unlock()
		c.cStale.Inc()
		return body, etag, "stale", nil
	}

	// Miss. Join a pending computation if one is running.
	if ok && e.inflight != nil {
		done := e.inflight
		c.mu.Unlock()
		<-done
		c.mu.Lock()
		if cur, still := c.entries[key]; still && cur.body != nil {
			c.clock++
			cur.used = c.clock
			body, etag = cur.body, cur.etag
			c.mu.Unlock()
			c.cMiss.Inc()
			return body, etag, "miss", nil
		}
		err := e.err
		c.mu.Unlock()
		c.cErrors.Inc()
		return nil, "", "miss", err
	}

	// First requester: compute while holding the inflight slot.
	done := make(chan struct{})
	e = &cacheEntry{inflight: done}
	c.entries[key] = e
	c.mu.Unlock()

	c.cMiss.Inc()
	body, err = compute()
	etag = entityTag(now, key, body)

	c.mu.Lock()
	e.inflight = nil
	if err != nil {
		e.err = err
		delete(c.entries, key) // errors are not cached
		c.mu.Unlock()
		close(done)
		c.cErrors.Inc()
		return nil, "", "miss", err
	}
	e.body, e.etag, e.version = body, etag, now
	c.clock++
	e.used = c.clock
	c.evictLocked()
	c.mu.Unlock()
	close(done)
	return body, etag, "miss", nil
}

// evictLocked drops least-recently-used complete entries until the
// cache fits. Entries with a rebuild in flight are skipped: evicting
// them would orphan their waiters.
func (c *swrCache) evictLocked() {
	for len(c.entries) > c.max {
		var victim string
		var oldest int64
		for k, e := range c.entries {
			if e.inflight != nil || e.body == nil {
				continue
			}
			if victim == "" || e.used < oldest {
				victim, oldest = k, e.used
			}
		}
		if victim == "" {
			return
		}
		delete(c.entries, victim)
		c.cEvict.Inc()
	}
}

// Len reports the number of cached entries, pending computations
// included.
func (c *swrCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
