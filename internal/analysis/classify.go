// Package analysis implements the paper's evaluation analyses: the
// global performance overview (§4, Figures 6–7), temporal degradation
// (§5, Figure 8, Table 1 left), opportunity for performance-aware
// routing (§6.2, Figure 9, Table 1 right, Table 2), and the peer/transit
// relationship comparison (§6.3, Figure 10).
package analysis

import (
	"fmt"

	"repro/internal/geo"
)

// Class is the temporal behaviour classification of §3.4.2.
type Class int

// Classes, checked in order (§3.4.2).
const (
	// Unclassified groups lack coverage (traffic in <60% of windows).
	Unclassified Class = iota
	// Uneventful: no valid window shows the event.
	Uneventful
	// Continuous: the event holds in at least 75% of valid windows.
	Continuous
	// Diurnal: some fixed 15-minute time-of-day shows the event on at
	// least DiurnalDays distinct days.
	Diurnal
	// Episodic: everything else with at least one event.
	Episodic
)

// String names the class as Table 1 does.
func (c Class) String() string {
	switch c {
	case Unclassified:
		return "Unclassified"
	case Uneventful:
		return "Uneventful"
	case Continuous:
		return "Continuous"
	case Diurnal:
		return "Diurnal"
	case Episodic:
		return "Episodic"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classes lists the reportable classes in Table 1 order.
var Classes = []Class{Uneventful, Continuous, Diurnal, Episodic}

// ClassifyParams tunes the §3.4.2 classifier.
type ClassifyParams struct {
	// WindowsPerDay converts window indexes to time-of-day slots.
	WindowsPerDay int
	// CoverageFloor is the minimum fraction of windows with traffic for
	// a group to be classified at all (paper: 0.60).
	CoverageFloor float64
	// ContinuousFraction is the share of valid windows that must show
	// the event for the Continuous class (paper: 0.75).
	ContinuousFraction float64
	// DiurnalDays is how many distinct days a fixed time-of-day slot
	// must show the event (paper: 5; clamp to the dataset length for
	// short runs).
	DiurnalDays int
}

// DefaultClassifyParams returns the paper's thresholds for a dataset of
// the given number of days.
func DefaultClassifyParams(days int) ClassifyParams {
	dd := 5
	if days < dd {
		dd = days
	}
	if dd < 1 {
		dd = 1
	}
	return ClassifyParams{
		WindowsPerDay:      96,
		CoverageFloor:      0.60,
		ContinuousFraction: 0.75,
		DiurnalDays:        dd,
	}
}

// WindowVerdict is one window's outcome for a group at one threshold.
type WindowVerdict struct {
	Window int
	// Valid means the comparison met the sample floor and tightness
	// requirement (§3.4.1).
	Valid bool
	// Event means the degradation/opportunity condition held (lower
	// confidence bound above the threshold, §3.4).
	Event bool
	// Bytes is the traffic delivered to the group in this window.
	Bytes int64
}

// Classify assigns a §3.4.2 class from a group's window verdicts.
// present is the number of windows with any traffic; totalWindows the
// dataset's window count.
func Classify(verdicts []WindowVerdict, present, totalWindows int, p ClassifyParams) Class {
	if totalWindows == 0 || float64(present)/float64(totalWindows) < p.CoverageFloor {
		return Unclassified
	}
	valid, events := 0, 0
	daysWithEventBySlot := make(map[int]map[int]bool)
	for _, v := range verdicts {
		if !v.Valid {
			continue
		}
		valid++
		if !v.Event {
			continue
		}
		events++
		slot := v.Window % p.WindowsPerDay
		day := v.Window / p.WindowsPerDay
		if daysWithEventBySlot[slot] == nil {
			daysWithEventBySlot[slot] = make(map[int]bool)
		}
		daysWithEventBySlot[slot][day] = true
	}
	if valid == 0 || events == 0 {
		return Uneventful
	}
	if float64(events)/float64(valid) >= p.ContinuousFraction {
		return Continuous
	}
	for _, days := range daysWithEventBySlot {
		if len(days) >= p.DiurnalDays {
			return Diurnal
		}
	}
	return Episodic
}

// ClassRow is one Table 1 cell pair at one threshold: the traffic share
// of groups in the class, and the share of traffic delivered during the
// class's event windows.
type ClassRow struct {
	GroupTrafficShare float64
	EventTrafficShare float64
}

// ClassTable is Table 1 for one metric: class × continent × threshold.
type ClassTable struct {
	Metric Metric
	// Thresholds analysed, in the metric's units.
	Thresholds []float64
	// Rows[class][continent][thresholdIndex], normalised per continent.
	Rows map[Class]map[geo.Continent][]ClassRow
	// Overall[class][thresholdIndex] is normalised over all traffic.
	Overall map[Class][]ClassRow
}

// Classify builds one half of Table 1 — degradation or opportunity, as
// the series is — by temporal class at each threshold (§3.4.2).
func (s Series) Classify(totalWindows int, p ClassifyParams, thresholds []float64) ClassTable {
	tbl := ClassTable{
		Metric:     s.Metric,
		Thresholds: thresholds,
		Rows:       make(map[Class]map[geo.Continent][]ClassRow),
		Overall:    make(map[Class][]ClassRow),
	}
	type key struct {
		class Class
		cont  geo.Continent
		ti    int
	}
	groupBytes := make(map[key]int64)
	eventBytes := make(map[key]int64)
	contBytes := make(map[geo.Continent]int64)
	var allBytes int64
	// verdicts is one scratch for every group × threshold, sized for the
	// longest group: Classify reads it and keeps none of it.
	longest := 0
	for _, g := range s.Groups {
		longest = max(longest, len(g.Points))
	}
	verdicts := make([]WindowVerdict, longest)

	for _, g := range s.Groups {
		var total int64
		for _, pt := range g.Points {
			total += pt.Bytes
		}
		contBytes[g.Continent] += total
		allBytes += total

		for ti, th := range thresholds {
			verdicts := verdicts[:len(g.Points)]
			var evBytes int64
			for i, pt := range g.Points {
				ev := pt.Event(th)
				verdicts[i] = WindowVerdict{Window: pt.Window, Valid: pt.Valid, Event: ev, Bytes: pt.Bytes}
				if ev {
					evBytes += pt.Bytes
				}
			}
			class := Classify(verdicts, len(g.Points), totalWindows, p)
			if class == Unclassified {
				continue
			}
			k := key{class, g.Continent, ti}
			groupBytes[k] += total
			eventBytes[k] += evBytes
		}
	}

	for _, class := range Classes {
		tbl.Rows[class] = make(map[geo.Continent][]ClassRow)
		tbl.Overall[class] = make([]ClassRow, len(thresholds))
		for _, cont := range geo.Continents {
			tbl.Rows[class][cont] = make([]ClassRow, len(thresholds))
		}
	}
	for ti := range thresholds {
		for _, class := range Classes {
			var gb, eb int64
			for _, cont := range geo.Continents {
				k := key{class, cont, ti}
				gb += groupBytes[k]
				eb += eventBytes[k]
				if cb := contBytes[cont]; cb > 0 {
					tbl.Rows[class][cont][ti] = ClassRow{
						GroupTrafficShare: float64(groupBytes[k]) / float64(cb),
						EventTrafficShare: float64(eventBytes[k]) / float64(cb),
					}
				}
			}
			if allBytes > 0 {
				tbl.Overall[class][ti] = ClassRow{
					GroupTrafficShare: float64(gb) / float64(allBytes),
					EventTrafficShare: float64(eb) / float64(allBytes),
				}
			}
		}
	}
	return tbl
}
