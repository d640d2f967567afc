package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// loadResults reads every result file in dir, keyed by workload and then
// metric name, keeping the values of end-to-end runs and traced runs apart
// by the metric names themselves (the two sets are disjoint).
func loadResults(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string][]float64)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run was not correct (%s); its numbers do not count", f, r.Error)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, s := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], s.Value)
		}
	}
	return out, nil
}

// verdict judges B against base A for one metric on one workload. The
// change is expressed in the worsening direction as a share of A's median.
// A spread (interquartile distance over median) wider than the bound on
// either side means the runs cannot resolve a change of that size.
func verdict(d metricDef, a, b []float64) (change float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = (mb - ma) / ma
	}
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case d.Bound == 0:
		return change, "-"
	case ma == 0:
		return 0, "same"
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return change, "unresolved"
	case change > d.Bound:
		return change, "worse"
	case change < -d.Bound:
		return change, "better"
	}
	return change, "same"
}

// compareMain implements `benchmark compare A/ B/`: per metric and
// workload the medians, quartiles, ratio with its base, and a verdict.
// End-to-end metrics come first and need three runs a side; per-layer
// metrics found in the result files follow, with no bound and no verdict.
// It exits non-zero when any end-to-end metric is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A/ B/")
		return 2
	}
	a, err := loadResults(args[0])
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no result files", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	var names []string
	for w := range a {
		names = append(names, w)
	}
	sort.Strings(names)
	worse := 0
	fmt.Printf("%-20s %-34s %3s %12s %12s %12s | %3s %12s %12s %12s | %9s %8s  %s\n", "workload", "metric",
		"nA", "A.q1", "A.median", "A.q3", "nB", "B.q1", "B.median", "B.q3", "B/A", "worsens", "verdict")
	for _, w := range names {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			va, vb := a[w][d.Name], b[w][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			if d.Bound == 0 && median(va) == 0 && median(vb) == 0 {
				continue // a layer this workload does not exercise
			}
			if d.Bound > 0 && (len(va) < 3 || len(vb) < 3) {
				fmt.Fprintf(os.Stderr, "benchmark compare: %s %s: %d and %d runs; need at least 3 on each side\n", w, d.Name, len(va), len(vb))
				return 2
			}
			change, v := verdict(d, va, vb)
			if v == "worse" {
				worse++
			}
			aq1, aq3 := quartiles(va)
			bq1, bq3 := quartiles(vb)
			fmt.Printf("%-20s %-34s %3d %12.4f %12.4f %12.4f | %3d %12.4f %12.4f %12.4f | %9.4f %+7.1f%%  %s\n", w, d.Name,
				len(va), aq1, median(va), aq3, len(vb), bq1, median(vb), bq3, ratio(median(vb), median(va)), 100*change, v)
		}
	}
	if worse > 0 {
		fmt.Printf("%d metric(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}
