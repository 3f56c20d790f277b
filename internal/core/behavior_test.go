package core

import (
	"context"

	"fmt"
	"math"
	"testing"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
	"greenvm/internal/vm"
)

// adaptiveState reaches into the client's adaptive policy for its
// per-method EWMA/amortization state.
func adaptiveState(c *Client) map[*bytecode.Method]*adaptState {
	return c.Policy.(*AdaptivePolicy).state
}

// TestEWMAPrediction checks the paper's prediction formulas: after a
// run of invocations, sBar is the u-weighted average of past sizes.
func TestEWMAPrediction(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyAL, radio.Fixed{Cls: radio.Class4}, workTarget())
	m := p.FindMethod("App", "work")
	sizes := []int32{100, 200, 400}
	for _, s := range sizes {
		if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(s)}); err != nil {
			t.Fatal(err)
		}
	}
	st := adaptiveState(c)[m]
	// s1 = 100; s2 = .7*100 + .3*200 = 130; s3 = .7*130 + .3*400 = 211.
	if st.sBar != 211 {
		t.Errorf("sBar = %v, want 211", st.sBar)
	}
	if st.k != 3 {
		t.Errorf("k = %d, want 3", st.k)
	}
	// Power prediction tracks the fixed channel's transmit power.
	want := float64(c.Link.Chip.TxPower(radio.Class4))
	if st.pBar != want {
		t.Errorf("pBar = %v, want %v", st.pBar, want)
	}
}

// TestNewExecutionResetsAmortization: within one execution the k-
// amortization makes AL compile a hot method; a fresh execution resets
// k, so a single invocation prefers not to pay the compile again if a
// cheaper single-shot mode exists.
func TestNewExecutionResetsAmortization(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyAL, radio.Fixed{Cls: radio.Class1}, workTarget())
	m := p.FindMethod("App", "work")
	for i := 0; i < 30; i++ {
		if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(600)}); err != nil {
			t.Fatal(err)
		}
	}
	if adaptiveState(c)[m].k != 30 {
		t.Fatalf("k = %d", adaptiveState(c)[m].k)
	}
	c.NewExecution()
	if adaptiveState(c)[m].k != 0 {
		t.Error("NewExecution should reset invocation counts")
	}
	if adaptiveState(c)[m].sBar == 0 {
		t.Error("NewExecution should keep the EWMA size prediction")
	}
	if c.Exec.planLinked(m, 1) || c.Exec.planLinked(m, 2) || c.Exec.planLinked(m, 3) {
		t.Error("NewExecution should unlink compiled bodies")
	}
}

// TestRecompileChargesAgain: a second execution that chooses a
// compiled mode pays the recorded compile energy again, while the
// simulator reuses the artifact (no second JIT run).
func TestRecompileChargesAgain(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyL2, radio.Fixed{Cls: radio.Class4}, workTarget())
	args := []vm.Slot{vm.IntSlot(100)}
	if _, err := c.Invoke(context.Background(), "App", "work", args); err != nil {
		t.Fatal(err)
	}
	e1 := c.VM.Acct.Component(energy.CompCompile)
	if e1 <= 0 {
		t.Fatal("first execution should charge compilation")
	}
	c.NewExecution()
	if _, err := c.Invoke(context.Background(), "App", "work", args); err != nil {
		t.Fatal(err)
	}
	e2 := c.VM.Acct.Component(energy.CompCompile)
	if rel := math.Abs(float64(e2)-2*float64(e1)) / float64(e1); rel > 1e-9 {
		t.Errorf("second execution compile charge %v, want doubled %v", e2, 2*e1)
	}
	if c.Stats.LocalCompiles != 4 { // 2 methods x 2 executions
		t.Errorf("LocalCompiles = %d, want 4", c.Stats.LocalCompiles)
	}
}

// TestDecisionOverheadCharged: the adaptive decision itself costs
// energy (the paper notes it is small).
func TestDecisionOverheadCharged(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyAL, radio.Fixed{Cls: radio.Class4}, workTarget())
	m := p.FindMethod("App", "work")
	before := c.VM.Acct.Snapshot()
	c.decideMode(m, 100)
	overhead := c.VM.Acct.Since(before)
	if overhead <= 0 {
		t.Fatal("decision charged nothing")
	}
	if overhead > 10*energy.MicroJoule {
		t.Errorf("decision overhead %v should be negligible", overhead)
	}
}

// TestPilotTrackerErrorRobustness: AL still functions (and still beats
// the worst static strategy) when the channel estimate is wrong 20% of
// the time.
func TestPilotTrackerErrorRobustness(t *testing.T) {
	p := testProgram(t)
	ch := radio.UniformChannel(rng.New(3))
	c := newTestClient(t, p, StrategyAL, ch, workTarget())
	c.Link.Tracker = radio.NewPilotTracker(ch, 0.2, rng.New(4))
	for i := 0; i < 25; i++ {
		c.NewExecution()
		if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(400)}); err != nil {
			t.Fatal(err)
		}
		c.StepChannel()
	}
	if c.Energy() <= 0 {
		t.Fatal("no energy")
	}
	total := 0
	for _, n := range c.Stats.ModeCounts {
		total += n
	}
	if total != 25 {
		t.Errorf("mode counts %v", c.Stats.ModeCounts)
	}
}

// TestMultipleTargetsIndependentState: two potential methods keep
// separate adaptive state and plans.
func TestMultipleTargetsIndependentState(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyAL, radio.Fixed{Cls: radio.Class4}, workTarget(), vecsumTarget())
	if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(300)}); err != nil {
		t.Fatal(err)
	}
	args, err := vecsumTarget().MakeArgs(c.VM, 128, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(context.Background(), "App", "vecsum", args); err != nil {
		t.Fatal(err)
	}
	work := p.FindMethod("App", "work")
	vec := p.FindMethod("App", "vecsum")
	if adaptiveState(c)[work] == nil || adaptiveState(c)[vec] == nil {
		t.Fatal("missing per-method state")
	}
	if adaptiveState(c)[work].k != 1 || adaptiveState(c)[vec].k != 1 {
		t.Errorf("k work=%d vec=%d", adaptiveState(c)[work].k, adaptiveState(c)[vec].k)
	}
	if adaptiveState(c)[work].sBar == adaptiveState(c)[vec].sBar {
		t.Error("size predictions should be independent")
	}
}

// TestClockAdvancesMonotonically across mixed local/remote execution.
func TestClockAdvancesMonotonically(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyAA, radio.UniformChannel(rng.New(8)), workTarget())
	last := c.Clock
	for i := 0; i < 12; i++ {
		c.NewExecution()
		if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(int32(100 + i*60))}); err != nil {
			t.Fatal(err)
		}
		if c.Clock <= last {
			t.Fatalf("clock did not advance at run %d: %v -> %v", i, last, c.Clock)
		}
		last = c.Clock
		c.StepChannel()
	}
}

// TestCodeCacheEviction: a tight code cache forces LRU eviction and
// recompilation charges on the next use of the evicted body.
func TestCodeCacheEviction(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyL2, radio.Fixed{Cls: radio.Class4}, workTarget(), vecsumTarget())
	// Big enough for one plan but not both.
	c.Exec.Cache.MaxBytes = 150

	argsW := []vm.Slot{vm.IntSlot(100)}
	if _, err := c.Invoke(context.Background(), "App", "work", argsW); err != nil {
		t.Fatal(err)
	}
	compiles1 := c.Stats.LocalCompiles
	argsV, err := vecsumTarget().MakeArgs(c.VM, 64, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(context.Background(), "App", "vecsum", argsV); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Evictions == 0 {
		t.Fatal("expected evictions under a 150-byte code cache")
	}
	// Re-running work must recompile what was evicted (same
	// execution, so without a cache it would have stayed linked).
	if _, err := c.Invoke(context.Background(), "App", "work", argsW); err != nil {
		t.Fatal(err)
	}
	if c.Stats.LocalCompiles <= compiles1+2 {
		t.Errorf("LocalCompiles = %d; eviction should force recompilation", c.Stats.LocalCompiles)
	}

	// An unlimited cache never evicts.
	c2 := newTestClient(t, p, StrategyL2, radio.Fixed{Cls: radio.Class4}, workTarget(), vecsumTarget())
	if _, err := c2.Invoke(context.Background(), "App", "work", argsW); err != nil {
		t.Fatal(err)
	}
	argsV2, _ := vecsumTarget().MakeArgs(c2.VM, 64, rng.New(2))
	if _, err := c2.Invoke(context.Background(), "App", "vecsum", argsV2); err != nil {
		t.Fatal(err)
	}
	if c2.Stats.Evictions != 0 {
		t.Error("unlimited cache should not evict")
	}
}

// TestConcurrentClientsOneServer: several clients share one in-process
// server concurrently (the server serializes execution internally).
func TestConcurrentClientsOneServer(t *testing.T) {
	p := testProgram(t)
	server := NewServer(p)
	pr := newProfiler(p)
	prof, err := pr.ProfileTarget(workTarget())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			c := New(ClientConfig{
				ID: fmt.Sprintf("pda-%d", i), Prog: p, Server: server,
				Channel: radio.Fixed{Cls: radio.Class4}, Strategy: StrategyR, Seed: uint64(i),
			})
			if err := c.Register(workTarget(), prof); err != nil {
				errs <- err
				return
			}
			for run := 0; run < 5; run++ {
				res, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(int32(100 + i))})
				if err != nil {
					errs <- err
					return
				}
				if res.I == 0 {
					errs <- fmt.Errorf("client %d: zero result", i)
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
