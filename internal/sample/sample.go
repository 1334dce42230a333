// Package sample defines the record schema produced by the load-balancer
// instrumentation (§2.2.2): one record per sampled HTTP session, with
// the TCP state captured at session termination, the per-transaction
// goodput outcome, and the egress-route annotation added after capture.
//
// Records flow: proxygen (capture) → collector (filter + annotate +
// store) → agg (user groups × windows) → analysis (figures/tables).
package sample

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/bgp"
	"repro/internal/geo"
)

// Protocol is the HTTP version of a session (§2.3 splits H1 vs H2).
type Protocol string

// Supported protocols.
const (
	HTTP1 Protocol = "h1"
	HTTP2 Protocol = "h2"
)

// Sample is one sampled HTTP session.
type Sample struct {
	// SessionID identifies the session within the dataset.
	SessionID uint64 `json:"id"`

	// PoP is the serving point of presence.
	PoP string `json:"pop"`
	// Prefix is the client's BGP prefix (tiebreaker-1 aggregate, §3.3).
	Prefix string `json:"prefix"`
	// ClientAS is the client's autonomous system.
	ClientAS int `json:"as"`
	// Country and Continent geolocate the client (§3.3).
	Country   string        `json:"country"`
	Continent geo.Continent `json:"continent"`
	// ClientSubnet subdivides the prefix (e.g. the /26 index within a
	// /24) for the §3.3 deaggregation experiment.
	ClientSubnet uint8 `json:"sub,omitempty"`

	// Proto is the HTTP version.
	Proto Protocol `json:"proto"`

	// DistanceKm is the great-circle distance from the client population
	// to its serving PoP, and CrossContinent whether the PoP sits on
	// another continent (§2.1: half of traffic within 500 km, 90% within
	// 2500 km and on the same continent).
	DistanceKm     float64 `json:"km,omitempty"`
	CrossContinent bool    `json:"xcont,omitempty"`

	// RouteID names the egress route the session was pinned to (§2.2.3).
	RouteID string `json:"route"`
	// RouteRel is the route's interconnect relationship.
	RouteRel bgp.RelType `json:"rel"`
	// ASPathLen is the AS-path length including prepending.
	ASPathLen int `json:"aspath"`
	// Prepended reports AS-path prepending on the route.
	Prepended bool `json:"prepended"`
	// AltIndex is 0 for the policy-preferred route, 1+ for the sampled
	// alternates (§6.2).
	AltIndex int `json:"alt"`

	// Start is the session start time relative to the dataset epoch.
	Start time.Duration `json:"start"`
	// Duration is the session lifetime (Figure 1a).
	Duration time.Duration `json:"dur"`
	// BusyFraction is the share of the lifetime spent sending (Fig 1b).
	BusyFraction float64 `json:"busy"`

	// Bytes is the total bytes transferred on the session (Figure 2).
	Bytes int64 `json:"bytes"`
	// Transactions is the session's transaction count (Figure 3).
	Transactions int `json:"txns"`
	// ResponseBytes holds individual response sizes for the response-size
	// distribution (Figure 2); the world generator may truncate it on
	// large sessions to bound memory.
	ResponseBytes []int64 `json:"resp,omitempty"`
	// MediaEndpoint marks sessions served by image/video endpoints.
	MediaEndpoint bool `json:"media,omitempty"`

	// MinRTT is the transport's minimum RTT at termination (§3.1).
	MinRTT time.Duration `json:"minrtt"`
	// HDTested and HDAchieved summarise the HDratio methodology (§3.2.4):
	// transactions that could test for HD goodput and those that
	// achieved it. HDratio = HDAchieved/HDTested when HDTested > 0.
	HDTested   int `json:"hdt"`
	HDAchieved int `json:"hda"`

	// SimpleAchieved counts transactions that passed the naive
	// Btotal/Ttotal check (§4's ablation baseline).
	SimpleAchieved int `json:"sja,omitempty"`

	// HostingProvider marks client addresses the third-party feed labels
	// as hosting/VPN; the collector filters them (~2% of traffic, §2.2.4).
	HostingProvider bool `json:"hosting,omitempty"`
}

// HDratio returns the session's HDratio and whether it is defined.
func (s Sample) HDratio() (float64, bool) {
	if s.HDTested == 0 {
		return 0, false
	}
	return float64(s.HDAchieved) / float64(s.HDTested), true
}

// SimpleHDratio returns the ablation baseline's HDratio.
func (s Sample) SimpleHDratio() (float64, bool) {
	if s.HDTested == 0 {
		return 0, false
	}
	return float64(s.SimpleAchieved) / float64(s.HDTested), true
}

// GroupKey identifies a user group (§3.3): clients behind the same BGP
// prefix, in the same country, served by the same PoP.
type GroupKey struct {
	PoP     string
	Prefix  string
	Country string
}

// Key returns the sample's user group.
func (s Sample) Key() GroupKey {
	return GroupKey{PoP: s.PoP, Prefix: s.Prefix, Country: s.Country}
}

// String renders the key compactly for logs and reports.
func (k GroupKey) String() string {
	return fmt.Sprintf("%s/%s/%s", k.PoP, k.Prefix, k.Country)
}

// Compare orders keys exactly as strings.Compare(k.String(), o.String())
// does, by walking PoP, Prefix and Country as one '/'-joined byte
// sequence, without formatting either key. That is not the order of the
// (PoP, Prefix, Country) tuple: the two differ when a part holds a byte
// below '/', such as '-' or '.', or a '/' itself, as prefixes do.
func (k GroupKey) Compare(o GroupKey) int {
	a := [...]string{k.PoP, "/", k.Prefix, "/", k.Country}
	b := [...]string{o.PoP, "/", o.Prefix, "/", o.Country}
	i, j, x, y := 0, 0, a[0], b[0]
	for {
		for ; x == "" && i+1 < len(a); i++ {
			x = a[i+1]
		}
		for ; y == "" && j+1 < len(b); j++ {
			y = b[j+1]
		}
		n := min(len(x), len(y))
		if n == 0 { // one sequence, or both, is at its end
			return cmp.Compare(len(x), len(y))
		}
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		x, y = x[n:], y[n:]
	}
}

// Hash returns a stable FNV-1a hash of the key — the sharding function
// for the concurrent aggregation pipeline. It is deterministic across
// processes (no per-run seeding) so shard assignment is reproducible,
// though nothing downstream depends on which shard a key lands on.
func (k GroupKey) Hash() uint32 {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for _, s := range [...]string{k.PoP, k.Prefix, k.Country} {
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= prime
		}
		h ^= 0x2f // separator, so ("ab","c") and ("a","bc") differ
		h *= prime
	}
	return h
}

// Writer streams samples as JSON lines.
type Writer struct {
	enc *json.Encoder
	n   int
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{enc: json.NewEncoder(w)} }

// Write appends one sample.
func (w *Writer) Write(s Sample) error {
	w.n++
	return w.enc.Encode(s)
}

// Count returns the number of samples written.
func (w *Writer) Count() int { return w.n }

// Reader streams samples from a JSON-lines dataset: one record per
// non-empty line (CRLF endings and blank lines are not records). It is
// the one parser JSONL enters the repo through, so what it rejects —
// two records on a line, a malformed record — is rejected everywhere,
// with the line's number.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader wraps r. The scanner's buffer doubles as the read buffer
// (r need not be buffered); a record may run to 16 MiB.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	return &Reader{sc: sc}
}

// Read returns the next sample or io.EOF.
func (r *Reader) Read() (Sample, error) {
	var s Sample
	for r.sc.Scan() {
		r.line++
		if len(r.sc.Bytes()) == 0 {
			continue
		}
		if err := json.Unmarshal(r.sc.Bytes(), &s); err != nil {
			return s, fmt.Errorf("sample: line %d: %w", r.line, err)
		}
		return s, nil
	}
	if err := r.sc.Err(); err != nil {
		return s, fmt.Errorf("sample: line %d: %w", r.line+1, err)
	}
	return s, io.EOF
}

// ReadAll drains the reader.
func (r *Reader) ReadAll() ([]Sample, error) {
	var out []Sample
	for {
		s, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
}
