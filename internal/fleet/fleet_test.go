package fleet

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"greenvm/internal/apps"
	"greenvm/internal/core"
	"greenvm/internal/experiments"
	"greenvm/internal/radio"
)

// Profiling the workloads dominates test time, so the tests share one
// prepared environment per app: MF exercises contention cheaply, FE is
// the app whose adaptive clients actually prefer offloading.
var (
	envOnce  sync.Once
	envMF    *experiments.Env
	envFE    *experiments.Env
	envErrMF error
	envErrFE error
)

func prepare(t *testing.T) {
	t.Helper()
	envOnce.Do(func() {
		envMF, envErrMF = experiments.Prepare(apps.MF(), 3)
		envFE, envErrFE = experiments.Prepare(apps.FE(), 3)
	})
}

func testWorkload(t *testing.T) Workload {
	t.Helper()
	prepare(t)
	if envErrMF != nil {
		t.Fatal(envErrMF)
	}
	return WorkloadOf(envMF)
}

func offloadWorkload(t *testing.T) Workload {
	t.Helper()
	prepare(t)
	if envErrFE != nil {
		t.Fatal(envErrFE)
	}
	return WorkloadOf(envFE)
}

// runClients runs spec, collecting the per-client records from the
// result sink in emission order, and fails the test on a spec error or
// a failed client. It also checks the run's conservation laws against
// the records: every client retires exactly once, Totals equal the
// records' sums in emission order (energy bit for bit), the clients',
// the pool's and the backends' served/shed counts agree, the
// sessions' requests and cache hits add up to the pool's, and no
// backend queue outgrew its cap.
func runClients(t *testing.T, spec Spec) (*Result, []ClientResult) {
	t.Helper()
	var recs []ClientResult
	spec.ResultSink = func(cr ClientResult) { recs = append(recs, cr) }
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range recs {
		if c.Err != "" {
			t.Fatalf("client %s failed: %s", c.ID, c.Err)
		}
	}

	pop := spec.Population
	if len(recs) != pop.N() {
		t.Fatalf("%d records retired for %d clients", len(recs), pop.N())
	}
	pending := make(map[string]bool, pop.N())
	for i := 0; i < pop.N(); i++ {
		pending[pop.ClientAt(i).ID] = true
	}
	var sum Totals
	served, shed, requests, hits := 0, 0, 0, 0
	for _, c := range recs {
		if !pending[c.ID] {
			t.Fatalf("client %s retired twice or is not in the cohort", c.ID)
		}
		delete(pending, c.ID)
		sum.Clients++
		sum.Energy += c.Energy
		sum.MaxTime = max(sum.MaxTime, c.Time)
		sum.Failovers += c.Stats.Failovers
		sum.Fallbacks += c.Stats.Fallbacks
		served += c.Served
		shed += c.Shed
		requests += c.Session.Requests
		hits += c.Session.CacheHits
	}
	if math.Float64bits(float64(res.Totals.Energy)) != math.Float64bits(float64(sum.Energy)) || res.Totals != sum {
		t.Errorf("totals %+v differ from the records' sums %+v", res.Totals, sum)
	}
	bServed, bShed, bDepth, bHits := 0, 0, 0, 0
	for _, b := range res.Backends {
		bServed += b.Served
		bShed += b.Shed
		bHits += b.CacheHits
		bDepth = max(bDepth, b.MaxQueueDepth)
		if b.MaxQueueDepth > res.Server.QueueCap {
			t.Errorf("backend %s queued %d requests past its cap of %d", b.ID, b.MaxQueueDepth, res.Server.QueueCap)
		}
	}
	if served != res.Server.Served || bServed != res.Server.Served {
		t.Errorf("served: clients %d, pool %d, backends %d", served, res.Server.Served, bServed)
	}
	if shed != res.Server.Shed || bShed != res.Server.Shed {
		t.Errorf("shed: clients %d, pool %d, backends %d", shed, res.Server.Shed, bShed)
	}
	if bDepth != res.Server.MaxQueueDepth {
		t.Errorf("pool max queue depth %d, deepest backend %d", res.Server.MaxQueueDepth, bDepth)
	}
	// Every served request ran on one of the client's sessions, and
	// every session's cache hits reach its backend's total when the
	// client retires.
	if requests != res.Server.Served {
		t.Errorf("session requests %d, pool served %d", requests, res.Server.Served)
	}
	if hits != res.Server.CacheHits || bHits != res.Server.CacheHits {
		t.Errorf("cache hits: sessions %d, pool %d, backends %d", hits, res.Server.CacheHits, bHits)
	}
	return res, recs
}

// render serializes everything a fleet run produces — the summary
// table, the per-client records and the observability snapshot — so
// two runs can be compared byte for byte.
func render(t *testing.T, r *Result, recs []ClientResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	for _, c := range recs {
		fmt.Fprintf(&buf, "%s|%v|%v|%v|%+v|%+v|%d|%d|%v|%v|%s\n",
			c.ID, c.Strategy, c.Energy, c.Time, c.Stats, c.Session,
			c.Served, c.Shed, c.AvgWait, c.MaxWait, c.Err)
	}
	fmt.Fprintf(&buf, "server %+v\n", r.Server)
	fmt.Fprintf(&buf, "placement %v\n", r.Placement)
	for _, b := range r.Backends {
		fmt.Fprintf(&buf, "backend %+v\n", b)
	}
	if err := r.Registry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mixedStrategies is the strategy rotation most fleet tests cycle.
var mixedStrategies = WithStrategyMix(core.StrategyR, core.StrategyAL, core.StrategyAA)

// TestFleetDeterministicAcrossConcurrency is the tentpole's core
// claim: a 32-client mixed-strategy fleet produces byte-identical
// results whether the clients simulate serially or on eight slots.
func TestFleetDeterministicAcrossConcurrency(t *testing.T) {
	w := testWorkload(t)
	build := func(conc int) Spec {
		return Spec{Workload: w, Population: NewPopulation(32, WithSeed(77),
			WithStrategyMix(core.StrategyR, core.StrategyI, core.StrategyL2, core.StrategyAL, core.StrategyAA),
			WithExecutions(3), WithSizes(16, 32)),
			Server: core.SessionConfig{Workers: 2, QueueCap: 4}, Concurrency: conc}
	}

	serial, serialRecs := runClients(t, build(1))
	parallel, parallelRecs := runClients(t, build(8))
	sb, pb := render(t, serial, serialRecs), render(t, parallel, parallelRecs)
	if !bytes.Equal(sb, pb) {
		t.Fatalf("serial and parallel fleets diverge:\n--- serial ---\n%s\n--- parallel ---\n%s", sb, pb)
	}

	// The run must have exercised contention, or the determinism claim
	// is vacuous.
	if serial.Server.MaxQueueDepth == 0 {
		t.Error("fleet never queued: the spec does not exercise admission control")
	}
	if serial.Server.Served == 0 {
		t.Error("fleet never offloaded")
	}
}

// TestFleetMultiServerDeterministic extends the determinism claim to
// the pool: for every placement policy and several server counts, a
// mixed-strategy fleet produces byte-identical results — placement
// decisions, per-backend admission, queue waits — whether the clients
// simulate serially or on eight slots.
func TestFleetMultiServerDeterministic(t *testing.T) {
	w := testWorkload(t)
	for _, servers := range []int{2, 3} {
		for _, pl := range Placements {
			servers, pl := servers, pl
			t.Run(fmt.Sprintf("%dservers_%s", servers, pl), func(t *testing.T) {
				build := func(conc int) Spec {
					return Spec{Workload: w, Population: NewPopulation(18, WithSeed(123),
						mixedStrategies, WithExecutions(3), WithSizes(16, 32)),
						Server:  core.SessionConfig{Workers: 1, QueueCap: 2},
						Servers: servers, Placement: pl, Concurrency: conc}
				}

				serial, serialRecs := runClients(t, build(1))
				parallel, parallelRecs := runClients(t, build(8))
				sb, pb := render(t, serial, serialRecs), render(t, parallel, parallelRecs)
				if !bytes.Equal(sb, pb) {
					t.Fatalf("serial and parallel fleets diverge:\n--- serial ---\n%s\n--- parallel ---\n%s", sb, pb)
				}

				// Non-vacuous: the pool is real and placement spread load.
				if len(serial.Backends) != servers {
					t.Fatalf("got %d backends, want %d", len(serial.Backends), servers)
				}
				serving := 0
				for _, b := range serial.Backends {
					if b.Served > 0 {
						serving++
					}
				}
				if serving < 2 {
					t.Errorf("placement %v left all traffic on one backend: %+v", pl, serial.Backends)
				}
			})
		}
	}
}

// TestFleetBackendFailover schedules one backend of a two-server pool
// to fail mid-run: queued requests flush as connection losses, the
// clients' loss machinery re-places on the survivor, and the whole
// thing stays byte-deterministic across concurrency. Every client
// survives the failure (runClients fails on a client error): losses
// fall back or re-place, they never surface as client errors.
func TestFleetBackendFailover(t *testing.T) {
	w := testWorkload(t)
	build := func(conc int) Spec {
		return Spec{Workload: w, Population: NewPopulation(8, WithSeed(21), WithExecutions(3),
			WithChannelMix(ChannelFixed), WithOutage(0, 0, 0), WithSizes(32)),
			Server:  core.SessionConfig{Workers: 2, QueueCap: 4},
			Servers: 2, Placement: PlaceHash,
			Chaos:       []BackendChaos{{FailAt: 0.002}}, // s0 dies two virtual ms in
			Concurrency: conc}
	}

	serial, serialRecs := runClients(t, build(1))
	parallel, parallelRecs := runClients(t, build(8))
	sb, pb := render(t, serial, serialRecs), render(t, parallel, parallelRecs)
	if !bytes.Equal(sb, pb) {
		t.Fatalf("failover fleets diverge:\n--- serial ---\n%s\n--- parallel ---\n%s", sb, pb)
	}
	if !serial.Backends[0].Down {
		t.Fatal("backend s0 never went down")
	}
	if serial.Backends[1].Down {
		t.Fatal("backend s1 went down without a scheduled failure")
	}
	if serial.Backends[1].Served == 0 {
		t.Error("surviving backend served nothing — sessions never re-placed")
	}
}

// TestFleetOverloadShedsAndShiftsLocal drives an adaptive fleet into a
// deliberately undersized server: admission control must shed, and the
// clients must price the busy errors into their decisions — work that
// would have gone remote observably shifts to local execution.
func TestFleetOverloadShedsAndShiftsLocal(t *testing.T) {
	w := offloadWorkload(t)
	pop := NewPopulation(16, WithSeed(5), WithStrategyMix(core.StrategyAA), WithExecutions(4),
		WithChannelMix(ChannelFixed), WithOutage(0, 0, 0), WithSizes(56000))
	// A narrow channel keeps the remote advantage small enough that a
	// few priced-in busy errors flip the estimate; unloaded, AA still
	// offloads FE here (the control run checks that).
	pop.class = radio.Class1
	spec := Spec{Workload: w, Population: pop, Server: core.SessionConfig{Workers: 1, QueueCap: -1}}

	res, recs := runClients(t, spec)
	if res.Server.Shed == 0 {
		t.Fatal("an undersized server with no queue never shed")
	}
	var local, shedClients int
	for _, c := range recs {
		local += localModes(c.Stats)
		if c.Shed > 0 {
			shedClients++
			if c.Stats.Sheds != c.Shed {
				t.Errorf("client %s: engine shed %d requests but its stats say %d",
					c.ID, c.Shed, c.Stats.Sheds)
			}
		}
	}
	if shedClients == 0 {
		t.Fatal("server shed requests but no client recorded one")
	}
	if local == 0 {
		t.Error("overload never shifted an adaptive client to local execution")
	}

	// Control: the same fleet against an adequately sized server sheds
	// nothing and keeps every decision remote — the local shift above
	// is the overload's doing, not the channel's.
	roomy := spec
	roomy.Server = core.SessionConfig{Workers: 16, QueueCap: 32}
	ctrl, ctrlRecs := runClients(t, roomy)
	if ctrl.Server.Shed != 0 {
		t.Fatalf("control fleet shed %d requests on a 16-worker server", ctrl.Server.Shed)
	}
	for _, c := range ctrlRecs {
		if localModes(c.Stats) != 0 {
			t.Fatalf("control client %s went local without overload: %v", c.ID, c.Stats.ModeCounts)
		}
	}
}

func localModes(s core.Stats) int {
	return s.ModeCounts[core.ModeInterp] + s.ModeCounts[core.ModeL1] +
		s.ModeCounts[core.ModeL2] + s.ModeCounts[core.ModeL3]
}

// TestFleetSessionCacheServesRepeats: clients drawing a single input
// size resend identical serialized requests, which the per-session
// caches answer without re-executing.
func TestFleetSessionCacheServesRepeats(t *testing.T) {
	w := testWorkload(t)
	res, _ := runClients(t, Spec{Workload: w, Population: NewPopulation(4, WithSeed(9), WithExecutions(5),
		WithChannelMix(ChannelFixed), WithOutage(0, 0, 0), WithSizes(32)),
		Server: core.SessionConfig{Workers: 4, QueueCap: 16}})
	if res.Server.CacheHits == 0 {
		t.Error("repeated identical offloads produced no session cache hits")
	}
}
