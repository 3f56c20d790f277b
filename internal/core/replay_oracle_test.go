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

// TestFleetReplayExact: fleets write byte-identical client and
// timeseries JSONL with replay on and off. The records leave out
// Stats.MemoHits, the one count that differs.
//
// chaos is the 40-client fe chaos fleet of
// TestTelemetryTailIndependentOfHostTiming (two executions per client,
// a flapping lossy backend and a browned-out one); its clients repeat
// their own runs. city is shaped like the fleet-city benchmark (mf,
// diurnal arrivals, overnight drift, 4 p2c backends) with every
// strategy, two sizes and two executions per client, so interpreted
// runs and every JIT level are replayed across clients from the run's
// shared memo, at one and at four concurrent clients.
func TestFleetReplayExact(t *testing.T) {
	t.Run("chaos", func(t *testing.T) {
		env, err := experiments.Prepare(apps.FE(), 3)
		if err != nil {
			t.Fatal(err)
		}
		spec := fleet.Spec{
			Workload: fleet.WorkloadOf(env),
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
		}
		on, off := runReplayFleet(t, spec, true), runReplayFleet(t, spec, false)
		on.same(t, off)
		if on.hits == 0 || off.hits != 0 {
			t.Errorf("%d replays with replay on, %d with it off; want some, then none", on.hits, off.hits)
		}
		t.Logf("%d local runs replayed", on.hits)
	})
	t.Run("city", func(t *testing.T) {
		env, err := experiments.Prepare(apps.MF(), 42)
		if err != nil {
			t.Fatal(err)
		}
		arrival, err := fleet.ParseArrival("diurnal:0.5")
		if err != nil {
			t.Fatal(err)
		}
		drift, err := fleet.ParseDrift("overnight")
		if err != nil {
			t.Fatal(err)
		}
		spec := fleet.Spec{
			Workload: fleet.WorkloadOf(env),
			Population: fleet.NewPopulation(210, fleet.WithSeed(42),
				fleet.WithStrategyMix(core.Strategies...),
				fleet.WithExecutions(2), fleet.WithArrivalCurve(arrival),
				fleet.WithChannelMix(fleet.ChannelDrifting), fleet.WithChannelDrift(drift),
				fleet.WithSizes(16, 24)),
			Server:      core.SessionConfig{Workers: 1, QueueCap: 16},
			Servers:     4,
			Placement:   fleet.PlaceP2C,
			Telemetry:   &fleet.TelemetrySpec{Tick: 0.01},
			Concurrency: 1,
		}
		off := runReplayFleet(t, spec, false)
		if off.shared != 0 {
			t.Errorf("%d shared replays with replay off", off.shared)
		}
		for _, conc := range []int{1, 4} {
			spec.Concurrency = conc
			on := runReplayFleet(t, spec, true)
			on.same(t, off)
			if on.shared == 0 {
				t.Errorf("concurrency %d: no run was replayed from the shared memo", conc)
			}
			t.Logf("concurrency %d: %d runs replayed from the shared memo, %d from clients' own", conc, on.shared, on.hits)
		}
	})
}

// replayFleet is one fleet run's output: its client and timeseries
// JSONL, the clients' own replays (Stats.MemoHits) and the runs
// replayed from the shared memo.
type replayFleet struct {
	clients, series []byte
	hits            int
	shared          int64
}

func runReplayFleet(t *testing.T, spec fleet.Spec, replay bool) replayFleet {
	t.Helper()
	defer core.SetReplay(core.SetReplay(replay))
	var out replayFleet
	var cb, sb bytes.Buffer
	enc := json.NewEncoder(&cb)
	spec.ResultSink = func(cr fleet.ClientResult) {
		if cr.Err != "" {
			t.Errorf("client %s failed: %s", cr.ID, cr.Err)
		}
		out.hits += cr.Stats.MemoHits
		if err := enc.Encode(cr); err != nil {
			t.Fatal(err)
		}
	}
	shared := core.SharedReplays()
	res, err := fleet.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	out.shared = core.SharedReplays() - shared
	if err := res.Series.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	out.clients, out.series = cb.Bytes(), sb.Bytes()
	return out
}

// same reports where two runs' JSONL differ.
func (f replayFleet) same(t *testing.T, off replayFleet) {
	t.Helper()
	if !bytes.Equal(f.clients, off.clients) {
		t.Error("client JSONL differs between replay on and off")
	}
	if !bytes.Equal(f.series, off.series) {
		t.Error("timeseries JSONL differs between replay on and off")
	}
}
