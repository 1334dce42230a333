package segstore

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/sample"
)

// Filter is a scan predicate with two levels of enforcement: whole
// segments are pruned against the manifest's per-segment index
// (MatchSegment — no bytes read), and surviving segments are filtered
// row by row (Match), so the two levels always agree. The zero value
// (and nil) matches everything.
type Filter struct {
	// From/To bound the session start offset, half-open [From, To).
	// To <= 0 means unbounded above.
	From, To time.Duration
	// Countries and PoPs, when non-empty, whitelist those values.
	Countries []string
	PoPs      []string
}

// ParseFilter assembles a filter from flag values: from/to as start
// offsets, countries and pops as comma-separated lists (case
// preserved), each sorted and with its repeats dropped, so lists that
// name the same values give the same filter. Returns nil when every
// field is empty.
func ParseFilter(from, to time.Duration, countries, pops string) (*Filter, error) {
	f := &Filter{From: from, To: to, Countries: splitList(countries), PoPs: splitList(pops)}
	if f.To > 0 && f.To <= f.From {
		return nil, fmt.Errorf("segstore: empty time range [%v, %v)", from, to)
	}
	if f.Empty() {
		return nil, nil
	}
	slices.Sort(f.Countries)
	slices.Sort(f.PoPs)
	f.Countries, f.PoPs = slices.Compact(f.Countries), slices.Compact(f.PoPs)
	return f, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// Empty reports whether the filter matches everything.
func (f *Filter) Empty() bool {
	return f == nil || (f.From <= 0 && f.To <= 0 && len(f.Countries) == 0 && len(f.PoPs) == 0)
}

// String renders the filter for Origin strings and logs.
func (f *Filter) String() string {
	if f.Empty() {
		return "all"
	}
	var parts []string
	if f.From > 0 || f.To > 0 {
		to := "∞"
		if f.To > 0 {
			to = f.To.String()
		}
		parts = append(parts, fmt.Sprintf("start=[%v,%s)", f.From, to))
	}
	if len(f.Countries) > 0 {
		parts = append(parts, "country="+strings.Join(f.Countries, ","))
	}
	if len(f.PoPs) > 0 {
		parts = append(parts, "pop="+strings.Join(f.PoPs, ","))
	}
	return strings.Join(parts, " ")
}

// Match is the row predicate.
func (f *Filter) Match(s *sample.Sample) bool {
	if f == nil {
		return true
	}
	if s.Start < f.From || (f.To > 0 && s.Start >= f.To) {
		return false
	}
	if len(f.Countries) > 0 && !contains(f.Countries, s.Country) {
		return false
	}
	if len(f.PoPs) > 0 && !contains(f.PoPs, s.PoP) {
		return false
	}
	return true
}

// MatchSegment is the pruning predicate: false only when the
// manifest's index proves no row in the segment can match.
func (f *Filter) MatchSegment(m *SegmentMeta) bool {
	if f == nil {
		return true
	}
	if m.Samples == 0 {
		return false // nothing to scan either way
	}
	if f.To > 0 && m.StartMin >= int64(f.To) {
		return false
	}
	if m.StartMax < int64(f.From) {
		return false
	}
	if len(f.Countries) > 0 && !intersects(f.Countries, m.Countries) {
		return false
	}
	if len(f.PoPs) > 0 && !intersects(f.PoPs, m.PoPs) {
		return false
	}
	return true
}

// Apply filters rows in place, preserving order, and returns the
// shortened slice (the input untouched when every row matches — the
// common case once segment pruning has run). The caller owns rows; no
// per-segment copy is made.
func (f *Filter) Apply(rows []sample.Sample) []sample.Sample {
	if f.Empty() {
		return rows
	}
	for i := range rows {
		if !f.Match(&rows[i]) {
			// First miss: compact the survivors down over it.
			k := i
			for j := i + 1; j < len(rows); j++ {
				if f.Match(&rows[j]) {
					rows[k] = rows[j]
					k++
				}
			}
			return rows[:k]
		}
	}
	return rows
}

// ApplyColumns filters a batch in place at the column level. The time
// bounds are checked against the batch's start hints first, so a batch
// wholly inside the range (the common case once segment pruning has
// run) skips the row scan for that term; dictionary columns are
// pre-resolved to allow-tables so the per-row test compares indexes,
// not strings.
func (f *Filter) ApplyColumns(b *ColumnBatch) {
	if f.Empty() || b.Len() == 0 {
		return
	}
	needTime := b.StartMin < int64(f.From) || (f.To > 0 && b.StartMax >= int64(f.To))
	countryOK := allowTable(f.Countries, &b.Country)
	popOK := allowTable(f.PoPs, &b.PoP)
	if !needTime && countryOK == nil && popOK == nil {
		return
	}
	from, to := int64(f.From), int64(f.To)
	b.Compact(func(i int) bool {
		if needTime && (b.Start[i] < from || (to > 0 && b.Start[i] >= to)) {
			return false
		}
		if countryOK != nil && !countryOK[b.Country.Idx[i]] {
			return false
		}
		if popOK != nil && !popOK[b.PoP.Idx[i]] {
			return false
		}
		return true
	})
}

// allowTable resolves a whitelist against a dictionary: one bool per
// dictionary entry. nil means the term is unconstrained (empty
// whitelist, or every entry allowed — no row can fail).
func allowTable(set []string, c *DictColumn) []bool {
	if len(set) == 0 {
		return nil
	}
	all := true
	ok := make([]bool, len(c.Dict))
	for i, v := range c.Dict {
		ok[i] = contains(set, v)
		all = all && ok[i]
	}
	if all {
		return nil
	}
	return ok
}

func contains(set []string, v string) bool {
	for _, s := range set {
		if s == v {
			return true
		}
	}
	return false
}

func intersects(a, b []string) bool {
	for _, v := range a {
		if contains(b, v) {
			return true
		}
	}
	return false
}
