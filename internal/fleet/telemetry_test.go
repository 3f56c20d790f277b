package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"greenvm/internal/core"
	"greenvm/internal/obs"
)

// telemetryChaosSpec is the canonical chaos fleet (flap + brownout +
// loss over three backends) with windowed telemetry switched on.
func telemetryChaosSpec(t *testing.T, conc int) Spec {
	t.Helper()
	return Spec{Workload: offloadWorkload(t),
		Population: NewPopulation(24, WithSeed(42), mixedStrategies, WithExecutions(6)),
		Server:     core.SessionConfig{Workers: 2, QueueCap: 8},
		Servers:    3, Placement: PlaceP2C,
		Chaos: []BackendChaos{
			{FlapAt: 0.001, FlapDown: 0.002, FlapEvery: 0.004},
			{BrownoutAt: 0.0005, BrownoutFactor: 6, LossRate: 0.3, LossBurst: 4},
		},
		Breaker:     &core.Breaker{Threshold: 2, Cooldown: 0.05, MaxCooldown: 0.4, ProbeBytes: 16},
		Concurrency: conc,
		Telemetry:   &TelemetrySpec{Tick: 0.0005}}
}

func seriesJSONL(t *testing.T, res *Result) []byte {
	t.Helper()
	if res.Series == nil {
		t.Fatal("telemetry requested but Series is nil")
	}
	var b bytes.Buffer
	if err := res.Series.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTimeSeriesDeterministicAcrossConcurrency is the PR's acceptance
// bar: a chaotic fleet's windowed telemetry — engine-side counters and
// tick-boundary gauges plus the client-side energy/breaker fold — is
// byte-identical whether the clients simulate serially or on eight
// slots.
func TestTimeSeriesDeterministicAcrossConcurrency(t *testing.T) {
	serial, serialRecs := runClients(t, telemetryChaosSpec(t, 1))
	parallel, parallelRecs := runClients(t, telemetryChaosSpec(t, 8))
	sj, pj := seriesJSONL(t, serial), seriesJSONL(t, parallel)
	if !bytes.Equal(sj, pj) {
		t.Error("time-series JSONL diverged between serial and 8-way simulation")
	}
	// The aggregate results stay byte-identical too (telemetry must not
	// perturb the simulation).
	if !bytes.Equal(render(t, serial, serialRecs), render(t, parallel, parallelRecs)) {
		t.Error("fleet results diverged between serial and 8-way simulation")
	}
}

// TestTelemetryTailIndependentOfHostTiming pins the end of a chaotic
// fleet's run: the tick and flap chains must stop at the same virtual
// time however the clients' goroutines interleave, so the
// engine-sampled series (up, busy, depth, backend down/up, flushed) and
// each backend's Flaps and Down repeat exactly. The spec is the
// benchmark's chaos fleet at 40 fe clients x 2 executions, whose last
// clients retire close together in host time.
func TestTelemetryTailIndependentOfHostTiming(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	w := offloadWorkload(t)
	build := func(conc int) Spec {
		return Spec{
			Workload: w,
			Population: NewPopulation(40, WithSeed(6),
				WithStrategyMix(core.StrategyR, core.StrategyAL, core.StrategyAA),
				WithExecutions(2), WithSizes(20000),
				WithArrivalCurve(ArrivalSpec{Kind: ArriveUniform, Span: 40.0 / 4800})),
			Server:  core.SessionConfig{Workers: 2, QueueCap: 16},
			Servers: 2,
			Chaos: []BackendChaos{
				{FlapAt: 0.001, FlapDown: 0.002, FlapEvery: 0.004, LossRate: 0.35, LossBurst: 4},
				{BrownoutAt: 0.0005, BrownoutFactor: 6},
			},
			Telemetry:   &TelemetrySpec{Tick: 0.0005},
			Concurrency: conc,
		}
	}
	tail := func(conc int) string {
		res, _ := runClients(t, build(conc))
		var b strings.Builder
		for _, be := range res.Backends {
			fmt.Fprintf(&b, "%s flaps=%d down=%v\n", be.ID, be.Flaps, be.Down)
		}
		b.Write(seriesJSONL(t, res))
		return b.String()
	}
	want := tail(1)
	runs := 8
	if testing.Short() {
		runs = 2
	}
	for i := 0; i < runs; i++ {
		if got := tail(4); got != want {
			t.Fatalf("run %d at concurrency 4: backend outcomes or time series differ from the serial run", i)
		}
	}
}

// TestTimeSeriesContent checks the windows actually chart the run:
// totals across windows match the end-of-run aggregates, every window
// is contiguous and tick-aligned, and the chaos schedule shows up
// (backend s0's down transitions, brownout-era behavior on s1).
func TestTimeSeriesContent(t *testing.T) {
	res, _ := runClients(t, telemetryChaosSpec(t, 0))
	wins := res.Series.Windows()
	if len(wins) == 0 {
		t.Fatal("no windows recorded")
	}
	tick := res.Series.Tick()
	var served, shed, energyJ, downs float64
	for i, w := range wins {
		if w.Index != wins[0].Index+int64(i) {
			t.Fatalf("windows not contiguous at %d", i)
		}
		if w.Start != float64(w.Index)*tick {
			t.Errorf("window %d start %g != index*tick %g", w.Index, w.Start, float64(w.Index)*tick)
		}
		served += w.Counters["served"]
		shed += w.Counters["shed"]
		energyJ += w.Counters["energy_j"]
		downs += w.Counters[obs.SeriesName("backend_down", "backend", "s0")]
	}
	if int(served) != res.Server.Served {
		t.Errorf("windowed served %d != aggregate %d", int(served), res.Server.Served)
	}
	if int(shed) != res.Server.Shed {
		t.Errorf("windowed shed %d != aggregate %d", int(shed), res.Server.Shed)
	}
	if downs < 2 {
		t.Errorf("s0 flap cycle shows %g down transitions in the windows, want >= 2", downs)
	}
	// The windowed energy fold sums per-invocation deltas; client
	// totals also include out-of-invocation costs (registration,
	// stat sync), so the windows account for slightly less — but must
	// stay within a fraction of a percent of the fleet total.
	total := float64(res.TotalEnergy())
	if energyJ <= 0 || energyJ > total || total-energyJ > 0.005*total {
		t.Errorf("windowed energy %g vs client total %g", energyJ, total)
	}
	// Breaker telemetry: the chaos spec trips breakers, so open
	// transitions and the replayed open-count gauge must appear.
	var opens float64
	sawGauge := false
	for _, w := range wins {
		for name, v := range w.Counters {
			if strings.HasPrefix(name, "breaker_open{") {
				opens += v
			}
		}
		for name := range w.Gauges {
			if strings.HasPrefix(name, "breakers_open{") {
				sawGauge = true
			}
		}
	}
	if opens == 0 || !sawGauge {
		t.Errorf("breaker series missing: opens=%g gauge=%v", opens, sawGauge)
	}
}

// TestTimeSeriesJSONLSchema decodes the exported JSONL and checks the
// header and window invariants the benchreport validator enforces.
func TestTimeSeriesJSONLSchema(t *testing.T) {
	res, _ := runClients(t, telemetryChaosSpec(t, 0))
	raw := seriesJSONL(t, res)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("empty JSONL")
	}
	var hdr struct {
		Schema  string  `json:"schema"`
		Tick    float64 `json:"tick"`
		Windows int     `json:"windows"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != obs.TimeSeriesSchema || hdr.Tick != 0.0005 {
		t.Errorf("header %+v", hdr)
	}
	n := 0
	for sc.Scan() {
		var w obs.Window
		if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
			t.Fatalf("window %d: %v", n, err)
		}
		n++
	}
	if n != hdr.Windows {
		t.Errorf("header says %d windows, file has %d", hdr.Windows, n)
	}
}

// TestTelemetryRejectsBadTick: a telemetry spec without a positive
// tick is a spec error, not a panic deep in the engine.
func TestTelemetryRejectsBadTick(t *testing.T) {
	spec := Spec{Workload: testWorkload(t), Population: NewPopulation(2), Telemetry: &TelemetrySpec{}}
	if _, err := Run(spec); err == nil {
		t.Error("want error for zero telemetry tick")
	}
}

// TestTelemetryLiveRegistry: with a live registry attached, the
// engine's child handles populate it during the run.
func TestTelemetryLiveRegistry(t *testing.T) {
	spec := telemetryChaosSpec(t, 0)
	reg := obs.NewRegistry()
	spec.Telemetry.Live = reg
	res, _ := runClients(t, spec)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"fleet_live_served_total{backend=\"s0\"}",
		"fleet_live_queue_wait_seconds_count",
		"fleet_live_backend_up",
		"fleet_live_window",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("live registry missing %s in:\n%s", want, out)
		}
	}
	// Served counts in the live registry agree with the result.
	var liveServed float64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != "fleet_live_served_total" {
			continue
		}
		for _, s := range m.Series {
			liveServed += s.Value
		}
	}
	if int(liveServed) != res.Server.Served {
		t.Errorf("live served %d != result %d", int(liveServed), res.Server.Served)
	}
}
