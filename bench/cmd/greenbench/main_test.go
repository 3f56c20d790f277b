package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"greenvm/internal/energy"
	"greenvm/internal/experiments"
	"greenvm/internal/fleet"
)

// tinyWorkloads are the benchmark's workloads at test sizes.
var tinyWorkloads = []workload{
	gridWorkload([]string{"fe"}, 2),
	cityWorkload(64),
	chaosWorkload(64, 2),
}

// runBatch sets w up and runs one batch, traced or not, returning the
// batch and its digest.
func runBatch(t *testing.T, w workload, seed uint64, tr *tracer) (batch, string) {
	t.Helper()
	b, err := w.setup(tr, -1, seed)
	if err != nil {
		t.Fatalf("%s set-up: %v", w.name, err)
	}
	if err := b.run(tr, -1); err != nil {
		t.Fatalf("%s run: %v", w.name, err)
	}
	digest, err := b.verify()
	if err != nil {
		t.Fatalf("%s checks: %v", w.name, err)
	}
	return b, digest
}

// Each workload passes its checks at a tiny size, its digest repeats
// across set-ups and batches, and the traced path, which runs the grid
// cell by cell, reproduces the untraced digest.
func TestTinyWorkloadsRepeat(t *testing.T) {
	for _, w := range tinyWorkloads {
		t.Run(w.name, func(t *testing.T) {
			b, first := runBatch(t, w, 7, nil)
			if err := b.run(nil, -1); err != nil {
				t.Fatal(err)
			}
			if again, err := b.verify(); err != nil || again != first {
				t.Errorf("second batch: digest %s, err %v; first %s", again, err, first)
			}
			if _, d := runBatch(t, w, 7, nil); d != first {
				t.Errorf("fresh set-up digest %s, want %s", d, first)
			}
			tr := newTracer()
			tb, d := runBatch(t, w, 7, tr)
			if d != first {
				t.Errorf("traced digest %s, want %s", d, first)
			}
			m := map[string]float64{}
			tb.layers(tr, m)
			for name, v := range m {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("layer %s = %v", name, v)
				}
			}
			if _, d := runBatch(t, w, 8, nil); d == first {
				t.Errorf("seed 8 gives seed 7's digest %s", d)
			}
		})
	}
}

func TestFleetChecksCatchTampering(t *testing.T) {
	b, _ := runBatch(t, chaosWorkload(64, 2), 7, nil)
	fb := b.(*fleetBatch)
	if fb.res.Server.Shed == 0 || len(fb.res.Backends) < 2 {
		t.Fatalf("the chaos fleet should shed on several backends: %+v", fb.res.Server)
	}
	tamper := map[string]func(o *fleetOut, r *fleet.Result){
		"missing record": func(o *fleetOut, r *fleet.Result) { o.records-- },
		"totals clients": func(o *fleetOut, r *fleet.Result) { r.Totals.Clients++ },
		"client error":   func(o *fleetOut, r *fleet.Result) { o.errs, o.firstErr = 1, "pda-01: boom" },
		"totals errors":  func(o *fleetOut, r *fleet.Result) { r.Totals.Errors = 1 },
		"energy last bit": func(o *fleetOut, r *fleet.Result) {
			r.Totals.Energy = energy.Joules(math.Nextafter(float64(r.Totals.Energy), 1e9))
		},
		"client served":     func(o *fleetOut, r *fleet.Result) { o.served++ },
		"backend served":    func(o *fleetOut, r *fleet.Result) { r.Backends[1].Served++ },
		"pool shed":         func(o *fleetOut, r *fleet.Result) { r.Server.Shed++ },
		"backend shed":      func(o *fleetOut, r *fleet.Result) { r.Backends[0].Shed-- },
		"backend queue cap": func(o *fleetOut, r *fleet.Result) { r.Backends[0].MaxQueueDepth = r.Server.QueueCap + 1 },
		"pool queue cap":    func(o *fleetOut, r *fleet.Result) { r.Server.MaxQueueDepth = r.Server.QueueCap + 1 },
	}
	if err := checkFleet(&fb.out, fb.n, fb.res); err != nil {
		t.Fatalf("untampered result fails: %v", err)
	}
	for name, f := range tamper {
		o, r := fb.out, *fb.res
		r.Backends = append([]fleet.BackendResult(nil), fb.res.Backends...)
		f(&o, &r)
		if err := checkFleet(&o, fb.n, &r); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestGridChecksCatchTampering(t *testing.T) {
	b, _ := runBatch(t, gridWorkload([]string{"fe"}, 2), 7, nil)
	gb := b.(*gridBatch)
	if err := checkGrid(gb.cells, gb.normalized); err != nil {
		t.Fatalf("untampered result fails: %v", err)
	}
	tamper := map[string]func(c []experiments.Fig7Cell, n *[experiments.NumSituations][7]float64){
		"NaN energy": func(c []experiments.Fig7Cell, n *[experiments.NumSituations][7]float64) {
			c[3].Energy = energy.Joules(math.NaN())
		},
		"infinite energy": func(c []experiments.Fig7Cell, n *[experiments.NumSituations][7]float64) {
			c[0].Energy = energy.Joules(math.Inf(1))
		},
		"zero energy": func(c []experiments.Fig7Cell, n *[experiments.NumSituations][7]float64) { c[5].Energy = 0 },
		"L1 not 1":    func(c []experiments.Fig7Cell, n *[experiments.NumSituations][7]float64) { n[2][2] = 0.9999999999999999 },
	}
	for name, f := range tamper {
		cells := append([]experiments.Fig7Cell(nil), gb.cells...)
		norm := *gb.normalized
		f(cells, &norm)
		if err := checkGrid(cells, &norm); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestFoldTopFixture(t *testing.T) {
	f, err := os.Open("testdata/top.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byPkg, total, err := foldTop(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"isa": 880, "mem": 430, "vm": 250, "energy": 60, "obs": 40, "fleet": 20,
		"apps": 10, "bench": 10, "bytecode": 10, "core": 0, "experiments": 0, "runtime": 490,
	}
	if !reflect.DeepEqual(byPkg, want) {
		t.Errorf("fold = %v\nwant %v", byPkg, want)
	}
	if total != 2200 {
		t.Errorf("total %v ms, want the header's 2200", total)
	}
	if _, _, err := foldTop(strings.NewReader("Showing nodes accounting for 0, 0% of 0 total\n")); err == nil {
		t.Error("output without a table folded without error")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "run", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 40}, // overlaps a
		{Name: "c", Parent: 0, Start: 60, End: 70},
		{Name: "d", Parent: 3, Start: 61, End: 69}, // grandchild: already covered
	}}
	if got := tr.self(0) * 1e9; math.Abs(got-60) > 1e-6 {
		t.Errorf("self = %v ns, want 60", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) on these inputs.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "execs_per_s", Better: "higher", Bound: 0.10}
	base := stat{Median: 10, Q1: 9.9, Q3: 10.1, N: 5}
	cases := []struct {
		d    metricDef
		cur  stat
		want string
	}{
		{lower, stat{Median: 10.5, Q1: 10.4, Q3: 10.6}, "same"},
		{lower, stat{Median: 11.5, Q1: 11.4, Q3: 11.6}, "worse"},
		{lower, stat{Median: 9, Q1: 8.9, Q3: 9.1}, "better"},
		{lower, stat{Median: 10, Q1: 8, Q3: 12}, "unresolved"},
		{higher, stat{Median: 8.5, Q1: 8.4, Q3: 8.6}, "worse"},
		{higher, stat{Median: 11.5, Q1: 11.4, Q3: 11.6}, "better"},
	}
	for _, c := range cases {
		if got := verdict(c.d, base, c.cur); got != c.want {
			t.Errorf("%s %+v: %s, want %s", c.d.Name, c.cur, got, c.want)
		}
	}
}

// A rep that errors or disagrees with the majority digest counts all
// its executions as failed and leaves the medians.
func TestFoldCountsFailedReps(t *testing.T) {
	w := workload{name: "w", execs: 10}
	reps := []repResult{
		{SetupS: 1, WallS: []float64{2, 2}, Execs: 10, Digest: "a"},
		{SetupS: 1, WallS: []float64{2}, Execs: 10, Digest: "a"},
		{SetupS: 1, WallS: []float64{9}, Execs: 10, Digest: "b"},
		{Execs: 10, Err: "rep process: exit status 1"},
		{Traced: true, SetupS: 1, WallS: []float64{3}, Execs: 10, Digest: "a", Layers: map[string]float64{"isa.self_s": 1}},
	}
	wr, err := fold(w, reps, -1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Digest != "a" || wr.Attempted != 60 || wr.Failed != 20 || len(wr.Errors) != 2 {
		t.Errorf("digest %s attempted %d failed %d errors %v", wr.Digest, wr.Attempted, wr.Failed, wr.Errors)
	}
	if s := wr.EndToEnd["wall_s"]; s.Median != 2 || s.N != 3 {
		t.Errorf("wall_s %+v, want median 2 over the 3 agreeing batches", s)
	}
	if got := wr.PerLayer["trace.overhead_frac"]; got != 0.5 {
		t.Errorf("overhead %v, want 0.5", got)
	}
}

// BENCHMARK.json at the repository root describes exactly the
// workloads and metrics this command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, command %q %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
}
