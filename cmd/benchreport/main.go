// Command benchreport is the schema checker for the telemetry
// artifacts: -validate-ts checks a fleetsim -timeseries JSONL file
// (header schema/tick, contiguous tick-aligned windows, finite
// non-negative counters), and -validate-prom checks a Prometheus text
// exposition (parseable samples; every family declared
// `# TYPE ... summary` carries quantile samples plus _sum and _count).
// Either path may be "-" for stdin, and both may be given at once.
//
// It times nothing: the simulator's speed is measured by greenbench
// (bench/), and the deterministic sweep rows are pinned by
// internal/fleet's TestSweepGolden.
//
// Usage:
//
//	benchreport -validate-ts ts.jsonl
//	benchreport -validate-prom metrics.txt
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	validateTS := flag.String("validate-ts", "", "validate a timeseries JSONL file ('-' for stdin)")
	validateProm := flag.String("validate-prom", "", "validate a Prometheus text exposition file ('-' for stdin)")
	flag.Parse()
	if *validateTS == "" && *validateProm == "" {
		fmt.Fprintln(os.Stderr, "benchreport: nothing to do; give -validate-ts and/or -validate-prom")
		flag.Usage()
		os.Exit(2)
	}
	if err := runValidate(os.Stdout, *validateTS, *validateProm); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}
