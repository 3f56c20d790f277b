package fleet

import (
	"bytes"
	"testing"

	"greenvm/internal/core"
)

// chaosSpec builds the canonical chaos comparison fleet: 16 mixed
// clients, two backends at equal aggregate capacity, a composed
// brown-out (x8 service time plus a bursty loss process) on s0, and a
// breaker prototype whose cooldown outlives the inter-invocation gap
// so an open breaker actually shapes later decisions.
func chaosSpec(t *testing.T, placement Placement, mode BreakerMode) Spec {
	t.Helper()
	return Spec{Workload: offloadWorkload(t),
		Population: NewPopulation(16, WithSeed(42), mixedStrategies, WithExecutions(12)),
		Server:     core.SessionConfig{Workers: 2, QueueCap: 16},
		Servers:    2, Placement: placement,
		Chaos:    []BackendChaos{{BrownoutAt: 0.0005, BrownoutFactor: 8, LossRate: 0.5, LossBurst: 8}},
		Breakers: mode,
		Breaker:  &core.Breaker{Threshold: 2, Cooldown: 0.05, MaxCooldown: 0.4, ProbeBytes: 16}}
}

// TestChaosDeterministicAcrossConcurrency extends the fleet's
// determinism guarantee to chaos injection: crashes, restarts,
// brown-outs, per-backend loss bursts and half-open probes are all
// scheduled and judged inside the event heap, so a chaotic fleet is
// byte-identical whether clients simulate serially or on eight slots.
func TestChaosDeterministicAcrossConcurrency(t *testing.T) {
	build := func(conc int) Spec {
		spec := telemetryChaosSpec(t, conc)
		spec.Telemetry = nil
		return spec
	}
	serial, serialRecs := runClients(t, build(1))
	parallel, parallelRecs := runClients(t, build(8))
	if !bytes.Equal(render(t, serial, serialRecs), render(t, parallel, parallelRecs)) {
		t.Error("chaotic fleet diverged between serial and 8-way simulation")
	}
	flaps := 0
	for _, b := range serial.Backends {
		flaps += b.Flaps
	}
	if flaps < 2 {
		t.Errorf("flap schedule produced %d crashes, want a real crash/restart cycle", flaps)
	}
}

// TestPerBackendBreakersShedLessThanGlobal is the PR's acceptance
// criterion: under a single browned-out backend at equal aggregate
// capacity, per-backend breakers shed strictly less work to local
// fallback than one global link breaker — the faulty backend goes
// dark alone, and the surviving backend keeps serving.
func TestPerBackendBreakersShedLessThanGlobal(t *testing.T) {
	run := func(mode BreakerMode) (fallbacks, served int) {
		res, _ := runClients(t, chaosSpec(t, PlaceCheapest, mode))
		return res.TotalFallbacks(), res.Server.Served
	}
	backendFB, backendServed := run(BreakersBackend)
	globalFB, globalServed := run(BreakersGlobal)
	if backendFB >= globalFB {
		t.Errorf("per-backend breakers fell back %d times, global %d — want strictly less",
			backendFB, globalFB)
	}
	if backendServed <= globalServed {
		t.Errorf("per-backend breakers served %d, global %d — want strictly more",
			backendServed, globalServed)
	}
}

// TestFlappingBackendProbes drives the half-open machinery through a
// crash/restart cycle: breakers open on the flapping backend's
// attributed losses, cool down, and probe the engine's virtual-time
// backend state — some probes landing mid-restart, some after
// recovery — while the fleet keeps completing on the survivor.
func TestFlappingBackendProbes(t *testing.T) {
	spec := chaosSpec(t, PlaceP2C, BreakersBackend)
	spec.Chaos = []BackendChaos{{FlapAt: 0.001, FlapDown: 0.004, FlapEvery: 0.008}}
	spec.Breaker = &core.Breaker{Threshold: 1, Cooldown: 0.002, MaxCooldown: 0.016, ProbeBytes: 16}
	res, recs := runClients(t, spec)
	probes, downs := 0, 0
	for _, c := range recs {
		probes += c.Stats.Probes
		downs += len(c.Stats.LinkDownsBy)
	}
	if res.Backends[0].Flaps < 2 {
		t.Fatalf("backend s0 crashed %d times, want a flapping cycle", res.Backends[0].Flaps)
	}
	if downs == 0 {
		t.Error("no client attributed a breaker transition to the flapping backend")
	}
	if probes == 0 {
		t.Error("no half-open probe fired across the whole flapping run")
	}
	if res.TotalFallbacks() == res.Server.Served {
		t.Error("fleet did no remote work at all under flapping")
	}
}

// TestShedAttributionPerBackend pins BusyError attribution end to end
// for every placement policy: the sheds each client books against a
// named backend sum exactly to that backend's own shed counter.
func TestShedAttributionPerBackend(t *testing.T) {
	w := offloadWorkload(t)
	for _, pl := range Placements {
		pl := pl
		t.Run(pl.String(), func(t *testing.T) {
			res, recs := runClients(t, Spec{Workload: w,
				Population: NewPopulation(24, WithSeed(42), mixedStrategies, WithExecutions(6)),
				Server:     core.SessionConfig{Workers: 1, QueueCap: 1},
				Servers:    2, Placement: pl})
			byBackend := map[string]int{}
			total := 0
			for _, c := range recs {
				for b, n := range c.Stats.ShedsBy {
					byBackend[b] += n
				}
				total += c.Stats.Sheds
			}
			if total == 0 {
				t.Fatal("overloaded pool shed nothing; the attribution check is vacuous")
			}
			attributed := 0
			for _, n := range byBackend {
				attributed += n
			}
			if attributed != total {
				t.Errorf("attributed %d of %d sheds; every pool shed must name its backend", attributed, total)
			}
			for _, b := range res.Backends {
				if got := byBackend[b.ID]; got != b.Shed {
					t.Errorf("%s: clients booked %d sheds, backend booked %d", b.ID, got, b.Shed)
				}
			}
		})
	}
}
