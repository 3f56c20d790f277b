package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"greenvm/internal/apps"
	"greenvm/internal/core"
	"greenvm/internal/experiments"
	"greenvm/internal/fleet"
)

// The replay oracles run the grid and a fleet twice, with handset
// replay on and with every execution simulated for real, and require
// the outputs to agree bit for bit. They live here rather than in the
// experiments and fleet packages because only core's own test binary
// can switch replay off.

// TestGridReplayExact: every Fig 7 cell (energy, time, mode counts and
// fallbacks) is bit-identical with replay on and off, over all apps,
// strategies and situations at 10 executions per cell (-short: fe and
// mf).
func TestGridReplayExact(t *testing.T) {
	list := apps.All()
	if testing.Short() {
		list = []*apps.App{apps.FE(), apps.MF()}
	}
	r := experiments.NewRunner(0)
	envs, err := experiments.PrepareAllOn(r, list, 42)
	if err != nil {
		t.Fatal(err)
	}
	run := func(replay bool) *experiments.Fig7Result {
		defer core.SetReplay(core.SetReplay(replay))
		res, err := experiments.RunFig7On(r, envs, 10, 42)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on, off := run(true), run(false)
	hits := 0
	for sit := range on.Cells {
		for si, s := range core.Strategies {
			for _, env := range envs {
				a, b := on.Cells[sit][si][env.App.Name], off.Cells[sit][si][env.App.Name]
				hits += a.MemoHits
				if math.Float64bits(float64(a.Energy)) != math.Float64bits(float64(b.Energy)) ||
					math.Float64bits(float64(a.Time)) != math.Float64bits(float64(b.Time)) ||
					a.ModeCounts != b.ModeCounts || a.Fallbacks != b.Fallbacks || b.MemoHits != 0 {
					t.Errorf("%s, situation %v, %v: replay on %+v, off %+v",
						env.App.Name, experiments.Situation(sit), s, a, b)
				}
			}
		}
	}
	if hits == 0 {
		t.Error("no execution was replayed")
	}
	t.Logf("%d local runs replayed", hits)
}

// TestFleetReplayExact: the 40-client fe chaos fleet of
// TestTelemetryTailIndependentOfHostTiming (two executions per client,
// a flapping lossy backend and a browned-out one) writes byte-identical
// client and timeseries JSONL with replay on and off. The records leave
// out Stats.MemoHits, the one count that differs.
func TestFleetReplayExact(t *testing.T) {
	env, err := experiments.Prepare(apps.FE(), 3)
	if err != nil {
		t.Fatal(err)
	}
	w := fleet.WorkloadOf(env)
	run := func(replay bool) (clients, series []byte, hits int) {
		defer core.SetReplay(core.SetReplay(replay))
		var cb, sb bytes.Buffer
		enc := json.NewEncoder(&cb)
		res, err := fleet.Run(fleet.Spec{
			Workload: w,
			Population: fleet.NewPopulation(40, fleet.WithSeed(6),
				fleet.WithStrategyMix(core.StrategyR, core.StrategyAL, core.StrategyAA),
				fleet.WithExecutions(2), fleet.WithSizes(20000),
				fleet.WithArrivalCurve(fleet.ArrivalSpec{Kind: fleet.ArriveUniform, Span: 40.0 / 4800})),
			Server:  core.SessionConfig{Workers: 2, QueueCap: 16},
			Servers: 2,
			Chaos: []fleet.BackendChaos{
				{FlapAt: 0.001, FlapDown: 0.002, FlapEvery: 0.004, LossRate: 0.35, LossBurst: 4},
				{BrownoutAt: 0.0005, BrownoutFactor: 6},
			},
			Telemetry:   &fleet.TelemetrySpec{Tick: 0.0005},
			Concurrency: 1,
			ResultSink: func(cr fleet.ClientResult) {
				if cr.Err != "" {
					t.Errorf("client %s failed: %s", cr.ID, cr.Err)
				}
				hits += cr.Stats.MemoHits
				if err := enc.Encode(cr); err != nil {
					t.Fatal(err)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Series.WriteJSONL(&sb); err != nil {
			t.Fatal(err)
		}
		return cb.Bytes(), sb.Bytes(), hits
	}
	onClients, onSeries, hits := run(true)
	offClients, offSeries, offHits := run(false)
	if !bytes.Equal(onClients, offClients) {
		t.Error("client JSONL differs between replay on and off")
	}
	if !bytes.Equal(onSeries, offSeries) {
		t.Error("timeseries JSONL differs between replay on and off")
	}
	if hits == 0 || offHits != 0 {
		t.Errorf("%d replays with replay on, %d with it off; want some, then none", hits, offHits)
	}
	t.Logf("%d local runs replayed", hits)
}
