package core

import (
	"context"

	"errors"
	"testing"

	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
	"greenvm/internal/vm"
)

// failingRemote passes compilation through but fails every execution
// with an ordinary (non-connection-loss) error, so the invocation
// errors out after the link already charged the send.
type failingRemote struct {
	inner Remote
}

var errServerRefused = errors.New("server refused")

func (f failingRemote) Execute(ctx context.Context, clientID, class, method string, argBytes []byte,
	reqTime, estEnd energy.Seconds) ([]byte, energy.Seconds, error) {
	return nil, 0, errServerRefused
}

func (f failingRemote) CompiledBody(ctx context.Context, qname string, level jit.Level) (*isa.Code, int, error) {
	return f.inner.CompiledBody(ctx, qname, level)
}

// TestStatsRadioSyncedAfterTrailingFailure is the regression test for
// the Stats.Radio staleness: an invocation that errors out after its
// send emits no EvInvoke, so the bytes of the trailing exchange never
// reach Stats until SyncStats folds the link's final counters in.
func TestStatsRadioSyncedAfterTrailingFailure(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyR, radio.Fixed{Cls: radio.Class4}, workTarget())
	args := []vm.Slot{vm.IntSlot(150)}
	if _, err := c.Invoke(context.Background(), "App", "work", args); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Radio != c.Link.Telemetry() {
		t.Fatalf("after a clean invocation Stats.Radio %+v should match the link %+v",
			c.Stats.Radio, c.Link.Telemetry())
	}

	// The next invocation's send succeeds (charging the link) but the
	// server refuses, so the invocation errors with no EvInvoke.
	c.Server = failingRemote{inner: c.Server}
	c.NewExecution()
	if _, err := c.Invoke(context.Background(), "App", "work", args); !errors.Is(err, errServerRefused) {
		t.Fatalf("invoke error = %v, want the server refusal", err)
	}
	if c.Stats.Radio == c.Link.Telemetry() {
		t.Fatal("test premise broken: the trailing failure left no unreported telemetry")
	}
	c.SyncStats()
	if c.Stats.Radio != c.Link.Telemetry() {
		t.Errorf("after SyncStats, Stats.Radio %+v still diverges from the link %+v",
			c.Stats.Radio, c.Link.Telemetry())
	}
}

// pairingSink checks the EvEstimate/EvInvoke protocol: for adaptive
// strategies every invocation is preceded by exactly one estimate for
// the same method, and the estimate's chosen mode is the invocation's
// decided mode.
type pairingSink struct {
	t         *testing.T
	pending   map[string]*Estimate
	estimates int
	invokes   int
}

func (ps *pairingSink) Emit(e Event) {
	switch e.Kind {
	case EvEstimate:
		name := e.Method.QName()
		if ps.pending[name] != nil {
			ps.t.Errorf("two estimates for %s without an invocation between them", name)
		}
		if e.Est == nil {
			ps.t.Fatal("EvEstimate without an Estimate payload")
		}
		ps.pending[name] = e.Est
		ps.estimates++
	case EvInvoke:
		name := e.Method.QName()
		est := ps.pending[name]
		if est == nil {
			ps.t.Errorf("invocation of %s without a preceding estimate", name)
			return
		}
		ps.pending[name] = nil
		ps.invokes++
		if est.Chosen != e.Mode {
			ps.t.Errorf("estimate chose %v but the invocation decided %v", est.Chosen, e.Mode)
		}
		if !est.Considered[est.Chosen] {
			ps.t.Errorf("chosen mode %v was not among the considered candidates", est.Chosen)
		}
	}
}

// TestEstimateInvokePairing: adaptive strategies emit exactly one
// EvEstimate per EvInvoke, in order, even under fault injection.
func TestEstimateInvokePairing(t *testing.T) {
	p := testProgram(t)
	for _, s := range []Strategy{StrategyAL, StrategyAA} {
		ps := &pairingSink{t: t, pending: map[string]*Estimate{}}
		c := newTestClient(t, p, s, radio.UniformChannel(rng.New(11)), workTarget())
		c.Link.Fault = radio.NewGilbertElliott(0.25, 4)
		c.Events.Attach(ps)
		for i := 0; i < 12; i++ {
			c.NewExecution()
			if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(int32(100 + 60*i))}); err != nil {
				t.Fatalf("%v run %d: %v", s, i, err)
			}
			c.StepChannel()
		}
		if ps.invokes != 12 || ps.estimates != 12 {
			t.Errorf("%v: %d estimates / %d invocations, want 12/12", s, ps.estimates, ps.invokes)
		}
	}
}

// TestStaticPoliciesEmitNoEstimates: the static strategies predict
// nothing, so no EvEstimate appears on their streams.
func TestStaticPoliciesEmitNoEstimates(t *testing.T) {
	p := testProgram(t)
	for _, s := range []Strategy{StrategyR, StrategyI, StrategyL1} {
		count := 0
		c := newTestClient(t, p, s, radio.Fixed{Cls: radio.Class4}, workTarget())
		c.Events.Attach(eventFunc(func(e Event) {
			if e.Kind == EvEstimate {
				count++
			}
		}))
		if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(200)}); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if count != 0 {
			t.Errorf("%v emitted %d estimates, want none", s, count)
		}
	}
}

// eventFunc adapts a func to EventSink.
type eventFunc func(Event)

func (f eventFunc) Emit(e Event) { f(e) }

// TestPhaseSpansCoverInvocations: every invocation's execution phases
// (interp/native/ship/listen/download/compile) appear as EvPhase
// spans nested inside the invocation's [At, At+Time] window, and the
// stream is ordered on the simulated clock.
func TestPhaseSpansCoverInvocations(t *testing.T) {
	p := testProgram(t)
	var events []Event
	c := newTestClient(t, p, StrategyAA, radio.UniformChannel(rng.New(5)), workTarget())
	c.Link.Fault = radio.NewGilbertElliott(0.3, 4)
	c.Events.Attach(eventFunc(func(e Event) { events = append(events, e) }))
	for i := 0; i < 10; i++ {
		c.NewExecution()
		if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(int32(120 + 70*i))}); err != nil {
			t.Fatal(err)
		}
		c.StepChannel()
	}

	phases := map[Phase]int{}
	var invokes, spans int
	for _, e := range events {
		switch e.Kind {
		case EvPhase:
			spans++
			phases[e.Phase]++
			if e.Time < 0 {
				t.Errorf("phase %v span with negative duration %v", e.Phase, e.Time)
			}
			if e.At < 0 || e.At+e.Time > c.Clock {
				t.Errorf("phase %v span [%v, %v] outside the run [0, %v]",
					e.Phase, e.At, e.At+e.Time, c.Clock)
			}
		case EvInvoke:
			invokes++
			if e.Time < 0 || e.At < 0 {
				t.Errorf("invocation span [%v, +%v] malformed", e.At, e.Time)
			}
		}
	}
	if invokes != 10 {
		t.Fatalf("%d invocations recorded, want 10", invokes)
	}
	if spans == 0 {
		t.Fatal("no phase spans recorded")
	}
	// This workload must exercise at least a local phase; under the
	// burst fault the remote machinery (ship or listen) shows up too.
	if phases[PhaseInterp]+phases[PhaseNative] == 0 {
		t.Errorf("no local execution phases: %v", phases)
	}
}

// TestTraceUnderFallbackRetryBreaker scripts an outage and checks the
// event stream tells the full story: the fallback invocations are
// marked, retries and breaker transitions appear between them, and
// the Trace sink's per-invocation records agree with Stats.
func TestTraceUnderFallbackRetryBreaker(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyR, radio.Fixed{Cls: radio.Class4}, workTarget())
	// Transfers 0-2 lost: three fallbacks open the threshold-3 breaker;
	// after the cooldown a probe heals it and offloading resumes.
	fault := &scriptedFault{down: func(i int) bool { return i < 3 }}
	c.Link.Fault = fault
	c.Breaker.Threshold = 3
	c.Breaker.Cooldown = 0.2
	c.Breaker.MaxCooldown = 0.2

	var kinds []EventKind
	c.Events.Attach(eventFunc(func(e Event) { kinds = append(kinds, e.Kind) }))
	tr := &Trace{}
	c.Events.Attach(tr)

	args := []vm.Slot{vm.IntSlot(150)}
	for i := 0; i < 3; i++ {
		if _, err := c.Invoke(context.Background(), "App", "work", args); err != nil {
			t.Fatal(err)
		}
	}
	c.Clock += 1 // past the cooldown: next invocation probes
	for i := 0; i < 2; i++ {
		if _, err := c.Invoke(context.Background(), "App", "work", args); err != nil {
			t.Fatal(err)
		}
	}

	if len(tr.Records) != 5 {
		t.Fatalf("trace has %d records, want 5", len(tr.Records))
	}
	for i, r := range tr.Records {
		wantFellBack := i < 3
		if r.FellBack != wantFellBack {
			t.Errorf("record %d: FellBack = %v, want %v", i, r.FellBack, wantFellBack)
		}
		if r.Method != "App.work" {
			t.Errorf("record %d: method %q", i, r.Method)
		}
	}
	count := func(k EventKind) int {
		n := 0
		for _, x := range kinds {
			if x == k {
				n++
			}
		}
		return n
	}
	if count(EvFallback) != c.Stats.Fallbacks || c.Stats.Fallbacks != 3 {
		t.Errorf("fallback events %d, stats %d, want 3", count(EvFallback), c.Stats.Fallbacks)
	}
	if count(EvLinkDown) != 1 || count(EvLinkUp) != 1 {
		t.Errorf("breaker transitions down=%d up=%d, want 1/1", count(EvLinkDown), count(EvLinkUp))
	}
	if count(EvProbe) == 0 {
		t.Error("no probe event before the breaker closed")
	}
	// Ordering: the breaker opens before it closes, and the probe
	// precedes the close.
	idx := func(k EventKind) int {
		for i, x := range kinds {
			if x == k {
				return i
			}
		}
		return -1
	}
	if !(idx(EvLinkDown) < idx(EvProbe) && idx(EvProbe) < idx(EvLinkUp)) {
		t.Errorf("event order down=%d probe=%d up=%d not monotone",
			idx(EvLinkDown), idx(EvProbe), idx(EvLinkUp))
	}
}
