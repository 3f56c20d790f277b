package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rep(benches ...benchEntry) *report {
	return &report{Schema: 8, Benches: benches}
}

func TestCompareReportsPassesWithinThreshold(t *testing.T) {
	base := rep(benchEntry{Name: "FigureGrid/workers=1", NsPerOp: 1000})
	cur := rep(benchEntry{Name: "FigureGrid/workers=1", NsPerOp: 1140})
	lines, failed := compareReports(base, cur, 0.15, nil)
	if failed {
		t.Fatalf("+14%% flagged as regression: %v", lines)
	}
}

func TestCompareReportsFailsPastThreshold(t *testing.T) {
	base := rep(
		benchEntry{Name: "FigureGrid/workers=1", NsPerOp: 1000},
		benchEntry{Name: "Fleet/slots=1", NsPerOp: 500},
	)
	cur := rep(
		benchEntry{Name: "FigureGrid/workers=1", NsPerOp: 1200}, // +20%: regression
		benchEntry{Name: "Fleet/slots=1", NsPerOp: 400},         // improvement
	)
	lines, failed := compareReports(base, cur, 0.15, nil)
	if !failed {
		t.Fatalf("injected +20%% regression not flagged: %v", lines)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "REGRESSION") {
		t.Fatalf("diff lines missing REGRESSION marker:\n%s", joined)
	}
}

func TestCompareReportsAllowlist(t *testing.T) {
	base := rep(benchEntry{Name: "Fleet/slots=4", NsPerOp: 1000})
	cur := rep(benchEntry{Name: "Fleet/slots=4", NsPerOp: 2000})
	lines, failed := compareReports(base, cur, 0.15, map[string]bool{"Fleet/slots=4": true})
	if failed {
		t.Fatalf("allowlisted regression failed the gate: %v", lines)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "(allowed)") {
		t.Fatalf("allowlisted regression not reported: %v", lines)
	}
}

func TestCompareReportsNewAndMissingBenches(t *testing.T) {
	base := rep(benchEntry{Name: "Old", NsPerOp: 100})
	cur := rep(benchEntry{Name: "New", NsPerOp: 100})
	lines, failed := compareReports(base, cur, 0.15, nil)
	if failed {
		t.Fatalf("disjoint bench sets should be informational, got failure: %v", lines)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "new benchmark") || !strings.Contains(joined, "missing") {
		t.Fatalf("expected new/missing notes:\n%s", joined)
	}
}

// TestCompareReportsGatesSweepRows: the sweep rows are deterministic,
// so any row that differs from the baseline's fails the gate, while
// identical rows pass.
func TestCompareReportsGatesSweepRows(t *testing.T) {
	mk := func() *report {
		r := rep(benchEntry{Name: "Fleet/slots=1", NsPerOp: 500})
		r.PlacementSweep = []sweepRow{{Clients: 16, Servers: 2, Placement: "p2c", Served: 40, Shed: 2, ShedPct: 4.76, EnergyJ: 1.25, MaxDepth: 3}}
		r.ChaosSweep = []chaosRow{{Fault: "flap", Placement: "hash", Breakers: "global", Served: 30, Fallbacks: 5, EnergyJ: 2.5}}
		return r
	}
	if lines, failed := compareReports(mk(), mk(), 0.15, nil); failed {
		t.Fatalf("identical sweeps failed the gate: %v", lines)
	}
	for name, mutate := range map[string]func(*report){
		"placement shed":  func(r *report) { r.PlacementSweep[0].Shed++ },
		"chaos energy":    func(r *report) { r.ChaosSweep[0].EnergyJ += 1e-12 },
		"chaos row lost":  func(r *report) { r.ChaosSweep = nil },
		"placement extra": func(r *report) { r.PlacementSweep = append(r.PlacementSweep, sweepRow{Clients: 32}) },
	} {
		cur := mk()
		mutate(cur)
		lines, failed := compareReports(mk(), cur, 0.15, map[string]bool{"Fleet/slots=1": true})
		if !failed {
			t.Errorf("%s: changed sweep passed the gate: %v", name, lines)
		}
		if !strings.Contains(strings.Join(lines, "\n"), "SWEEP CHANGED") {
			t.Errorf("%s: diff lines missing SWEEP CHANGED marker: %v", name, lines)
		}
	}
}

// TestGateFileMode exercises the -compare/-against file-vs-file path
// end to end, the mode CI uses after producing the temp artifact.
func TestGateFileMode(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	basePath := write("base.json", `{"schema":8,"benches":[{"name":"FigureGrid/workers=1","n":1,"ns_per_op":1000}]}`)
	okPath := write("ok.json", `{"schema":8,"benches":[{"name":"FigureGrid/workers=1","n":1,"ns_per_op":1100}]}`)
	badPath := write("bad.json", `{"schema":8,"benches":[{"name":"FigureGrid/workers=1","n":1,"ns_per_op":2000}]}`)

	if err := run("", 0, basePath, okPath, 0.15, nil); err != nil {
		t.Fatalf("within-threshold compare failed: %v", err)
	}
	if err := run("", 0, basePath, badPath, 0.15, nil); err == nil {
		t.Fatal("2x regression passed the gate")
	}
	if err := run("", 0, basePath, badPath, 0.15, allowSet("FigureGrid/workers=1")); err != nil {
		t.Fatalf("allowlisted regression failed the gate: %v", err)
	}
}
