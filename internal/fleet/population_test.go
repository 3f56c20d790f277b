package fleet

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"greenvm/internal/core"
	"greenvm/internal/energy"
)

// TestPopulationDefaultCohort pins the default cohort shape: ID
// format, strategy and channel rotation, outage cadence and per-client
// seeds. Every fleet pin (the golden JSONL, the BENCH sweep rows, the
// benchmark digests) is built on it.
func TestPopulationDefaultCohort(t *testing.T) {
	strats := []core.Strategy{core.StrategyR, core.StrategyAL}
	pop := NewPopulation(7, WithSeed(42), WithStrategyMix(strats...), WithExecutions(3))
	if pop.N() != 7 {
		t.Fatalf("%d clients, want 7", pop.N())
	}
	channels := []ChannelKind{ChannelFixed, ChannelUniform, ChannelMarkov}
	for i := 0; i < pop.N(); i++ {
		c := pop.ClientAt(i)
		if want := fmt.Sprintf("pda-%02d", i); c.ID != want {
			t.Errorf("client %d ID = %q, want %q", i, c.ID, want)
		}
		if want := strats[i%len(strats)]; c.Strategy != want {
			t.Errorf("client %d strategy = %v, want %v", i, c.Strategy, want)
		}
		if want := channels[i%len(channels)]; c.Channel != want {
			t.Errorf("client %d channel = %v, want %v", i, c.Channel, want)
		}
		if c.Executions != 3 {
			t.Errorf("client %d executions = %d, want 3", i, c.Executions)
		}
		if want := mix(42, uint64(i)); c.Seed != want {
			t.Errorf("client %d seed = %d, want %d", i, c.Seed, want)
		}
		wantOutage := i%5 == 4
		if (c.Outage > 0) != wantOutage {
			t.Errorf("client %d outage = %g, want outage: %v", i, c.Outage, wantOutage)
		}
	}
}

func TestParseArrival(t *testing.T) {
	good := []struct {
		in   string
		want ArrivalSpec
	}{
		{"none", ArrivalSpec{Kind: ArriveNone}},
		{"uniform:0.5", ArrivalSpec{Kind: ArriveUniform, Span: 0.5}},
		{"diurnal:2", ArrivalSpec{Kind: ArriveDiurnal, Span: 2, Amplitude: 0.9}},
		{"diurnal:2/0.4", ArrivalSpec{Kind: ArriveDiurnal, Span: 2, Amplitude: 0.4}},
	}
	for _, tc := range good {
		got, err := ParseArrival(tc.in)
		if err != nil {
			t.Errorf("ParseArrival(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseArrival(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	bad := []struct {
		in, want string
	}{
		{"diurnl:0.5", `did you mean "diurnal"`},
		{"unifrom:1", `did you mean "uniform"`},
		{"poisson:1", "valid: none, uniform, diurnal"},
		{"uniform", "needs a span"},
		{"uniform:-1", "must be a positive"},
		{"uniform:0.5/0.3", "takes no amplitude"},
		{"diurnal:1/1.5", "must be in [0, 1]"},
		{"none:0.5", "takes no parameters"},
	}
	for _, tc := range bad {
		_, err := ParseArrival(tc.in)
		if err == nil {
			t.Errorf("ParseArrival(%q) accepted a bad value", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseArrival(%q) error %q does not contain %q", tc.in, err, tc.want)
		}
	}
}

func TestParseDrift(t *testing.T) {
	d, err := ParseDrift("overnight")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "overnight" || d.Period != 64 || d.Depth != 0.4 || d.Stay != 0.55 {
		t.Errorf("overnight preset = %+v", d)
	}
	if d, err = ParseDrift("none"); err != nil || d.Name != "none" {
		t.Errorf("ParseDrift(none) = (%+v, %v)", d, err)
	}
	_, err = ParseDrift("comute")
	if err == nil || !strings.Contains(err.Error(), `did you mean "commute"`) {
		t.Errorf("ParseDrift(comute) error %v lacks suggestion", err)
	}
	_, err = ParseDrift("sinusoid")
	if err == nil || !strings.Contains(err.Error(), "valid: none, overnight, commute") {
		t.Errorf("ParseDrift(sinusoid) error %v lacks the valid set", err)
	}
}

// TestArrivalCurves checks the inverse-CDF draws: deterministic per
// seed, bounded by the span, and — for the diurnal curve — actually
// shaped (the middle half of one synthetic day holds most arrivals,
// which a uniform spread cannot produce).
func TestArrivalCurves(t *testing.T) {
	const n = 4000
	for _, tc := range []struct {
		name string
		a    ArrivalSpec
	}{
		{"uniform", ArrivalSpec{Kind: ArriveUniform, Span: 2}},
		{"diurnal", ArrivalSpec{Kind: ArriveDiurnal, Span: 2, Amplitude: 0.9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mid := 0
			for i := 0; i < n; i++ {
				seed := mix(5, uint64(i))
				at := tc.a.startTime(seed)
				if at < 0 || at > tc.a.Span {
					t.Fatalf("arrival %d at %v outside [0, %v]", i, at, tc.a.Span)
				}
				if again := tc.a.startTime(seed); again != at {
					t.Fatalf("arrival %d not deterministic: %v then %v", i, at, again)
				}
				if at > tc.a.Span/4 && at < 3*tc.a.Span/4 {
					mid++
				}
			}
			frac := float64(mid) / n
			switch tc.name {
			case "uniform":
				if frac < 0.45 || frac > 0.55 {
					t.Errorf("uniform middle-half fraction %.3f, want ~0.5", frac)
				}
			case "diurnal":
				// At amplitude 0.9 the middle half carries ~79% of the mass.
				if frac < 0.7 {
					t.Errorf("diurnal middle-half fraction %.3f, want > 0.7 (curve not shaped)", frac)
				}
			}
		})
	}
}

// TestSpecRejectsAmbiguousCohort: a spec without a cohort is an
// error, not an empty run.
func TestSpecRejectsAmbiguousCohort(t *testing.T) {
	w := testWorkload(t)
	for _, spec := range []Spec{{Workload: w}, {Workload: w, Population: NewPopulation(0)}} {
		if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "no clients") {
			t.Errorf("Run with no cohort: %v", err)
		}
	}
}

// TestRunRejectsOutOfRangeInputs: population and chaos parameters the
// channel and fault models cannot take fail Run with an error before
// any client launches, instead of panicking inside the simulation.
func TestRunRejectsOutOfRangeInputs(t *testing.T) {
	w := testWorkload(t)
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"drift depth", Spec{Workload: w, Population: NewPopulation(3,
			WithChannelMix(ChannelDrifting), WithChannelDrift(DriftSpec{Depth: 0.9}))},
			"fleet: channel drift depth 0.9"},
		{"outage fraction", Spec{Workload: w, Population: NewPopulation(3, WithOutage(1.5, 3, 1))},
			"fleet: outage fraction 1.5"},
		{"backend loss rate", Spec{Workload: w, Population: NewPopulation(3),
			Chaos: []BackendChaos{{LossRate: 1.2}}},
			"fleet: backend s0: loss rate 1.2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestResultSinkRetiresInArrivalOrder: the sink sees every client
// exactly once, in arrival order, and the run's Totals equal the
// records' sums bit for bit (runClients checks both).
func TestResultSinkRetiresInArrivalOrder(t *testing.T) {
	w := testWorkload(t)
	spec := Spec{Workload: w, Population: NewPopulation(30,
		WithSeed(6),
		WithStrategyMix(core.StrategyR, core.StrategyAA),
		WithExecutions(2),
		WithSizes(16),
		WithArrivalCurve(ArrivalSpec{Kind: ArriveUniform, Span: 0.02}),
	), Server: core.SessionConfig{Workers: 2, QueueCap: 4}, Concurrency: 4}
	_, recs := runClients(t, spec)
	var lastStart energy.Seconds = -1
	reordered := false
	for i, c := range recs {
		var idx int
		if _, err := fmt.Sscanf(c.ID, "pda-%d", &idx); err != nil {
			t.Fatalf("unparseable client ID %q: %v", c.ID, err)
		}
		at := spec.Population.StartAt(idx)
		if at < lastStart {
			t.Errorf("sink order broke arrival order at %s (%v after %v)", c.ID, at, lastStart)
		}
		lastStart = at
		reordered = reordered || idx != i
	}
	if !reordered {
		t.Error("arrival order equals index order; the ordering check is vacuous")
	}
}

// TestStreamedFleetMemoryPerClient pins the memory claim behind the
// Population + ResultSink redesign: mid-run live heap grows with the
// launch-ahead window, not the cohort. The all-resident design held
// every finished client (~hundreds of KB each) until the run ended —
// ~200 KB/client live at the midpoint of a 2k fleet; the streamed
// design must stay far below that.
func TestStreamedFleetMemoryPerClient(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-client memory probe; skipped under -short")
	}
	w := testWorkload(t)
	const n = 2000
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var midHeap uint64
	seen := 0
	spec := Spec{Workload: w, Population: NewPopulation(n,
		WithSeed(13),
		WithStrategyMix(core.StrategyR, core.StrategyAL, core.StrategyAA),
		WithExecutions(1),
		WithSizes(16),
		WithArrivalCurve(ArrivalSpec{Kind: ArriveDiurnal, Span: 0.5, Amplitude: 0.9}),
	), Server: core.SessionConfig{Workers: 4, QueueCap: 16}}
	spec.ResultSink = func(cr ClientResult) {
		if seen++; seen == n/2 {
			// Half the cohort has retired; with streaming their state is
			// garbage. Collect it so the reading counts live bytes only.
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			midHeap = m.HeapAlloc
		}
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.Errors > 0 {
		t.Fatalf("%d clients failed", res.Totals.Errors)
	}
	if midHeap == 0 {
		t.Fatal("midpoint sample never taken")
	}
	grown := float64(midHeap) - float64(before.HeapAlloc)
	perClient := grown / n
	t.Logf("mid-run live heap growth: %.0f KB total, %.1f KB/client", grown/1024, perClient/1024)
	if perClient > 50*1024 {
		t.Errorf("live heap %.1f KB/client at the midpoint; streaming should keep only the launch-ahead window resident", perClient/1024)
	}
}

// TestFleetScaleDeterministicStreamed is the city-scale determinism
// claim: a 10k-client diurnal cohort with drifting channels produces
// byte-identical streamed client records AND byte-identical telemetry
// JSONL whether it simulates serially or on eight slots.
func TestFleetScaleDeterministicStreamed(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-client sweep is seconds of work; skipped under -short")
	}
	w := testWorkload(t)
	run := func(conc int) (clientBytes, tsBytes []byte) {
		t.Helper()
		var cl bytes.Buffer
		spec := Spec{Workload: w, Population: NewPopulation(10000,
			WithSeed(20260807),
			WithStrategyMix(core.StrategyR, core.StrategyAL, core.StrategyAA),
			WithExecutions(1),
			WithSizes(16),
			WithArrivalCurve(ArrivalSpec{Kind: ArriveDiurnal, Span: 0.5, Amplitude: 0.9}),
			WithChannelMix(ChannelDrifting),
			WithChannelDrift(DriftSpec{Period: 64, Depth: 0.4, Stay: 0.55}),
		), Server: core.SessionConfig{Workers: 4, QueueCap: 16}}
		spec.Servers = 2
		spec.Placement = PlaceP2C
		spec.Concurrency = conc
		spec.Telemetry = &TelemetrySpec{Tick: 0.005}
		spec.ResultSink = func(cr ClientResult) {
			fmt.Fprintf(&cl, "%s|%v|%v|%v|%+v|%d|%d|%v|%v|%s\n",
				cr.ID, cr.Strategy, cr.Energy, cr.Time, cr.Stats,
				cr.Served, cr.Shed, cr.AvgWait, cr.MaxWait, cr.Err)
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Totals.Errors > 0 {
			t.Fatalf("%d clients failed", res.Totals.Errors)
		}
		var ts bytes.Buffer
		if err := res.Series.WriteJSONL(&ts); err != nil {
			t.Fatal(err)
		}
		return cl.Bytes(), ts.Bytes()
	}
	serialCl, serialTS := run(1)
	parCl, parTS := run(8)
	if !bytes.Equal(serialCl, parCl) {
		t.Error("serial and 8-way client streams diverge")
	}
	if !bytes.Equal(serialTS, parTS) {
		t.Error("serial and 8-way telemetry JSONL diverge")
	}
	if len(serialCl) == 0 || len(serialTS) == 0 {
		t.Error("scale run produced empty streams")
	}
}
