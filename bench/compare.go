package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readResults loads a file written with -out: one result a line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no results", path)
	}
	return out, nil
}

// quartiles are the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them — the driver's spread is
// the distance between the two as a share of the median.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median
// (0 for fewer than two values, which have no spread to show).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// verdict compares two sets of one end-to-end metric on one workload.
// worsening is how much worse b's median is than a's, as a share of
// a's (negative when b is better).
func verdict(d metricDef, a, b []float64) (worsening float64, word string) {
	ma, mb := median(a), median(b)
	worsening = (mb - ma) / ma
	if d.better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > d.bound:
		return worsening, "worse"
	case spread(a) > d.bound || spread(b) > d.bound:
		// Too noisy to call unchanged — unless every run of b reads
		// better than every run of a.
		q := append([]float64(nil), a...)
		p := append([]float64(nil), b...)
		sort.Float64s(q)
		sort.Float64s(p)
		if (d.better == "lower" && p[len(p)-1] < q[0]) || (d.better == "higher" && p[0] > q[len(q)-1]) {
			return worsening, "ok"
		}
		return worsening, "unresolved"
	}
	return worsening, "ok"
}

// compareFiles prints, for every workload present in both files and
// every end-to-end metric, both medians, their ratio with its base,
// the bound and a verdict; then checks that every exact layer count
// of one workload and seed is the same number in every traced run of
// either file. It reports whether everything was ok.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	collect := func(rs []result, source, workload, metric string) []float64 {
		var xs []float64
		for _, r := range rs {
			if m, ok := r.Metrics[metric]; ok && r.Conditions.Source == source && r.Conditions.Workload == workload {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}

	ok := true
	fmt.Fprintf(w, "a = %s\nb = %s\n", pathA, pathB)
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := collect(a, "untraced", wl.name, d.name), collect(b, "untraced", wl.name, d.name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			worsening, word := verdict(d, xa, xb)
			if word != "ok" {
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-24s a %.6g %s (n=%d, spread %.1f%%)  b %.6g %s (n=%d, spread %.1f%%)  b/a %.4f of a=%.6g  %s is better, worse by %+.1f%%, bound %.0f%%  %s\n",
				wl.name, d.name, median(xa), d.unit, len(xa), 100*spread(xa), median(xb), d.unit, len(xb), 100*spread(xb),
				median(xb)/median(xa), median(xa), d.better, 100*worsening, 100*d.bound, word)
		}
	}

	// Exact counts: one value per (workload, seed, metric), whichever
	// file and run it came from.
	type key struct {
		workload string
		seed     uint64
		metric   string
	}
	seen := map[key]float64{}
	checked := 0
	for _, r := range append(append([]result(nil), a...), b...) {
		if r.Conditions.Source != "traced" {
			continue
		}
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			k := key{r.Conditions.Workload, r.Conditions.Seed, d.name}
			x := r.Metrics[d.name].Value
			if prev, dup := seen[k]; dup && prev != x {
				ok = false
				fmt.Fprintf(w, "%-14s %-24s seed %d: exact count read %v in one run and %v in another  differs\n", k.workload, k.metric, k.seed, prev, x)
			}
			seen[k] = x
			checked++
		}
	}
	fmt.Fprintf(w, "exact layer counts: %d readings of %d (workload, seed, metric) triples compared\n", checked, len(seen))
	return ok, nil
}
