package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readResults loads a file of results, one JSON object per line (what
// -out appends).
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// side summarises one side's runs of one metric on one workload.
type side struct {
	N      int
	Median float64
	Spread float64 // (Q3 - Q1) / median
}

func summarise(runs []result, workload, metric string) side {
	var xs []float64
	for _, r := range runs {
		if r.Workload == workload && !r.Trace {
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	s := side{N: len(xs), Median: median(xs)}
	if q1, q3 := quartiles(xs); s.Median != 0 {
		s.Spread = (q3 - q1) / s.Median
	}
	return s
}

// verdict judges B against A for one metric: "unresolved" when either
// side's own run-to-run spread is wider than the bound, otherwise
// "worse" / "better" when B's median is off by more than the bound in
// that direction, else "unchanged".
func verdict(a, b side, m metricDef) (ratio float64, v string) {
	if a.N == 0 || b.N == 0 || a.Median == 0 {
		return 0, "unresolved"
	}
	ratio = b.Median / a.Median
	if a.Spread > m.Bound || b.Spread > m.Bound {
		return ratio, "unresolved"
	}
	change := ratio - 1 // > 0 means B is larger
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return ratio, "worse"
	case change < -m.Bound:
		return ratio, "better"
	}
	return ratio, "unchanged"
}

// compareFiles prints one row per workload and end-to-end metric and
// returns 1 when any row is "worse".
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2][]result
	for i, path := range []string{pathA, pathB} {
		runs, err := readResults(path)
		if err == nil && len(runs) == 0 {
			err = fmt.Errorf("%s holds no results", path)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sets[i] = runs
	}
	a, b := sets[0], sets[1]
	fmt.Fprintf(stdout, "%-15s %-18s %5s %12s %8s %5s %12s %8s %16s %6s  %s\n",
		"workload", "metric", "nA", "medianA", "spreadA", "nB", "medianB", "spreadB", "ratio B/A", "bound", "verdict")
	worse := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			sa, sb := summarise(a, w.Name, m.Name), summarise(b, w.Name, m.Name)
			if sa.N == 0 && sb.N == 0 {
				continue
			}
			ratio, v := verdict(sa, sb, m)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(stdout, "%-15s %-18s %5d %12.5g %7.1f%% %5d %12.5g %7.1f%% %7.3f of %-7.5g %5.0f%%  %s\n",
				w.Name, m.Name, sa.N, sa.Median, 100*sa.Spread, sb.N, sb.Median, 100*sb.Spread, ratio, sa.Median, 100*m.Bound, v)
		}
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse\n", worse)
		return 1
	}
	return 0
}
