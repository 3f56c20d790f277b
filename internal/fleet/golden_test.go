package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"greenvm/internal/apps"
	"greenvm/internal/core"
	"greenvm/internal/experiments"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden fleet output")

// goldenSpec is a small chaotic fleet that offloads a lot: mf clients
// at three input sizes, two executions each, over three p2c backends
// with s0 flapping on a lossy link and s1 browned out, on one slot.
func goldenSpec(t *testing.T) Spec {
	t.Helper()
	spec := Spec{Workload: testWorkload(t), Population: NewPopulation(64,
		WithSeed(12),
		WithStrategyMix(core.StrategyR, core.StrategyAL, core.StrategyAA),
		WithExecutions(2),
		WithSizes(16, 48, 88),
		WithArrivalCurve(ArrivalSpec{Kind: ArriveUniform, Span: 0.02}),
	), Server: core.SessionConfig{Workers: 1, QueueCap: 4}}
	spec.Servers = 3
	spec.Placement = PlaceP2C
	spec.Chaos = []BackendChaos{
		{FlapAt: 0.001, FlapDown: 0.002, FlapEvery: 0.004, LossRate: 0.3, LossBurst: 3},
		{BrownoutAt: 0.0005, BrownoutFactor: 6},
	}
	spec.Concurrency = 1
	spec.Telemetry = &TelemetrySpec{Tick: 0.001}
	return spec
}

// TestFleetGolden pins a chaotic fleet's streamed client records and
// telemetry JSONL byte for byte. Host-side work on the server or the
// client (replay, caching, dispatch) must leave both unchanged.
// Regenerate deliberately with:
//
//	go test ./internal/fleet -run TestFleetGolden -update-golden
func TestFleetGolden(t *testing.T) {
	res, recs := runClients(t, goldenSpec(t))
	if res.Server.Served == 0 {
		t.Fatal("golden fleet served no requests")
	}
	var clients bytes.Buffer
	enc := json.NewEncoder(&clients)
	for _, cr := range recs {
		if err := enc.Encode(cr); err != nil {
			t.Fatal(err)
		}
	}
	series := seriesJSONL(t, res)
	for _, f := range []struct {
		name string
		got  []byte
	}{
		{"golden_clients.jsonl", clients.Bytes()},
		{"golden_timeseries.jsonl", series},
	} {
		path := filepath.Join("testdata", f.name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update-golden): %v", err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("%s diverged from the golden file: got %d bytes, want %d", f.name, len(f.got), len(want))
		}
	}
}

// placementRow is one run of the placement sweep: a fleet size and
// server count at equal aggregate capacity, under one placement.
type placementRow struct {
	Clients   int     `json:"clients"`
	Servers   int     `json:"servers"`
	Placement string  `json:"placement"`
	Served    int     `json:"served"`
	Shed      int     `json:"shed"`
	ShedPct   float64 `json:"shed_pct"`
	EnergyJ   float64 `json:"total_energy_j"`
	MaxDepth  int     `json:"max_queue_depth"`
}

// chaosRow is one run of the chaos sweep: a fault shape on s0 under
// one placement and breaker scope.
type chaosRow struct {
	Fault     string  `json:"fault"`
	Placement string  `json:"placement"`
	Breakers  string  `json:"breakers"`
	Served    int     `json:"served"`
	Shed      int     `json:"shed"`
	Fallbacks int     `json:"fallbacks"`
	Failovers int     `json:"failovers"`
	Warmups   int     `json:"warmups"`
	EnergyJ   float64 `json:"total_energy_j"`
}

type sweeps struct {
	PlacementSweep []placementRow `json:"placement_sweep"`
	ChaosSweep     []chaosRow     `json:"chaos_sweep"`
}

// TestSweepGolden pins the placement and chaos sweeps row for row on
// fe (profiled at seed 42) with a mixed R/AL/AA cohort. The placement
// sweep holds aggregate capacity at 4 workers, split across 1, 2 or 4
// backends with queue 4 each, for 16 and 32 clients of 4 executions.
// The chaos sweep is fleet.SweepChaos on 16 clients of 12 executions
// over 2 backends. Regenerate deliberately with:
//
//	go test ./internal/fleet -run TestSweepGolden -update-golden
func TestSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("41 fleet runs; skipped in -short")
	}
	env, err := experiments.Prepare(apps.FE(), 42)
	if err != nil {
		t.Fatal(err)
	}
	w := WorkloadOf(env)
	cohort := func(n, execs int) *Population {
		return NewPopulation(n, WithSeed(42),
			WithStrategyMix(core.StrategyR, core.StrategyAL, core.StrategyAA),
			WithExecutions(execs))
	}
	var got sweeps
	const aggregateWorkers, queuePerBackend = 4, 4
	for _, n := range []int{16, 32} {
		for _, servers := range []int{1, 2, 4} {
			placements := Placements
			if servers == 1 {
				placements = []Placement{PlaceCheapest}
			}
			for _, pl := range placements {
				res, _ := runClients(t, Spec{Workload: w, Population: cohort(n, 4),
					Server:  core.SessionConfig{Workers: aggregateWorkers / servers, QueueCap: queuePerBackend},
					Servers: servers, Placement: pl})
				got.PlacementSweep = append(got.PlacementSweep, placementRow{
					Clients: n, Servers: servers, Placement: pl.String(),
					Served: res.Server.Served, Shed: res.Server.Shed,
					ShedPct:  100 * res.ShedRate(),
					EnergyJ:  float64(res.TotalEnergy()),
					MaxDepth: res.Server.MaxQueueDepth,
				})
			}
		}
	}
	err = SweepChaos(Spec{Workload: w, Population: cohort(16, 12),
		Server: core.SessionConfig{Workers: 2, QueueCap: 16}, Servers: 2},
		func(fault string, pl Placement, mode BreakerMode, res *Result) {
			got.ChaosSweep = append(got.ChaosSweep, chaosRow{
				Fault: fault, Placement: pl.String(), Breakers: mode.String(),
				Served: res.Server.Served, Shed: res.Server.Shed,
				Fallbacks: res.TotalFallbacks(), Failovers: res.TotalFailovers(),
				Warmups: res.TotalWarmups(), EnergyJ: float64(res.TotalEnergy()),
			})
		})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "sweeps.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want sweeps
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	diffRows(t, "placement_sweep", want.PlacementSweep, got.PlacementSweep)
	diffRows(t, "chaos_sweep", want.ChaosSweep, got.ChaosSweep)
}

// diffRows reports every row of a sweep that differs from the golden
// file's, matched by position.
func diffRows[T comparable](t *testing.T, name string, want, got []T) {
	t.Helper()
	for i := 0; i < max(len(want), len(got)); i++ {
		switch {
		case i >= len(want):
			t.Errorf("%s row %d: unexpected %+v", name, i, got[i])
		case i >= len(got):
			t.Errorf("%s row %d: missing %+v", name, i, want[i])
		case want[i] != got[i]:
			t.Errorf("%s row %d: %+v, want %+v", name, i, got[i], want[i])
		}
	}
}
