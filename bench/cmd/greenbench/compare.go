package main

import (
	"fmt"
	"io"
	"sort"
)

// verdict judges one end-to-end metric of a new run against a base
// run. It is "unresolved" when either run's spread between quartiles,
// as a share of its median, is wider than the metric's bound; "worse"
// when the new median is worse by more than the bound; "better" when
// it is better by more than the spread; "same" otherwise.
func verdict(d metricDef, base, cur stat) string {
	spread := max(relSpread(base), relSpread(cur))
	if spread > d.Bound {
		return "unresolved"
	}
	worse := (cur.Median - base.Median) / base.Median
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return "worse"
	case -worse > spread:
		return "better"
	default:
		return "same"
	}
}

func relSpread(s stat) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// writeComparison prints one row per (workload, metric) with both
// runs' medians and quartiles, the bound and the verdict, and flags
// each workload whose simulated output changed.
func writeComparison(w io.Writer, base, cur *report) {
	fmt.Fprintf(w, "comparison: base %s calib %.1f ms, new %s calib %.1f ms\n",
		base.Go, base.CalibMS, cur.Go, cur.CalibMS)
	fmt.Fprintf(w, "%-12s %-32s %12s %25s %12s %25s %6s  %s\n",
		"workload", "metric", "base", "base q1..q3", "new", "new q1..q3", "bound", "verdict")
	for _, cw := range cur.Workloads {
		bw := base.workload(cw.Name)
		if bw == nil {
			fmt.Fprintf(w, "%-12s not in base\n", cw.Name)
			continue
		}
		switch {
		case base.Seed != cur.Seed:
			fmt.Fprintf(w, "%-12s digest not comparable: seed %d vs %d\n", cw.Name, base.Seed, cur.Seed)
		case bw.Digest != cw.Digest:
			fmt.Fprintf(w, "%-12s DIGEST CHANGED %s -> %s\n", cw.Name, bw.Digest, cw.Digest)
		default:
			fmt.Fprintf(w, "%-12s digest same %s\n", cw.Name, cw.Digest)
		}
		if cw.Failed > 0 {
			fmt.Fprintf(w, "%-12s FAILED %d of %d executions\n", cw.Name, cw.Failed, cw.Attempted)
		}
		for _, d := range endToEnd {
			b, okB := bw.EndToEnd[d.Name]
			c, okC := cw.EndToEnd[d.Name]
			if !okB || !okC {
				continue
			}
			fmt.Fprintf(w, "%-12s %-32s %12.4g %12.4g..%-12.4g %12.4g %12.4g..%-12.4g %5.0f%%  %s\n",
				cw.Name, d.Name, b.Median, b.Q1, b.Q3, c.Median, c.Q1, c.Q3, 100*d.Bound, verdict(d, b, c))
		}
		names := make([]string, 0, len(cw.PerLayer))
		for name := range cw.PerLayer {
			if _, ok := bw.PerLayer[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%-12s %-32s %12.4g %25s %12.4g %25s %6s  -\n",
				cw.Name, name, bw.PerLayer[name], "", cw.PerLayer[name], "", "")
		}
	}
}
