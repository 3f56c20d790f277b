package core

import (
	"context"
	"fmt"
	"testing"

	"greenvm/internal/energy"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
	"greenvm/internal/vm"
)

// scriptedFault loses transfers while down() says so — a controllable
// outage for breaker tests.
type scriptedFault struct {
	down func(transfer int) bool
	n    int
}

func (f *scriptedFault) Judge(dir radio.Direction, r *rng.RNG) radio.Verdict {
	f.n++
	return radio.Verdict{Lost: f.down(f.n - 1)}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker()
	b.Threshold = 3
	b.Cooldown = 1
	b.MaxCooldown = 4

	if b.State() != BreakerClosed {
		t.Fatal("breaker should start closed")
	}
	b.RecordFailure(0)
	b.RecordFailure(0)
	if b.State() != BreakerClosed {
		t.Error("two losses must not open a threshold-3 breaker")
	}
	if !b.RecordFailure(0) {
		t.Error("third loss should report the open transition")
	}
	if b.State() != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	// Before the cooldown: still open. After: half-open.
	if b.Next(0.5) != BreakerOpen {
		t.Error("cooldown not elapsed, breaker must stay open")
	}
	if b.Next(1.5) != BreakerHalfOpen {
		t.Error("breaker should go half-open after the cooldown")
	}
	// Failed probe doubles the cooldown.
	if !b.RecordFailure(1.5) {
		t.Error("failed probe should report re-opening")
	}
	if b.Next(2.5) != BreakerOpen {
		t.Error("doubled cooldown (2s) must hold at +1s")
	}
	if b.Next(4) != BreakerHalfOpen {
		t.Error("breaker should go half-open after the doubled cooldown")
	}
	// Successful probe closes it and resets the loss run.
	if !b.RecordSuccess() {
		t.Error("successful probe should report the close transition")
	}
	if b.State() != BreakerClosed || b.consecutive != 0 {
		t.Error("breaker should be closed with the loss run reset")
	}
}

func TestBreakerCooldownCapped(t *testing.T) {
	b := NewBreaker()
	b.Threshold = 1
	b.Cooldown = 1
	b.MaxCooldown = 2
	now := energy.Seconds(0)
	b.RecordFailure(now)
	for i := 0; i < 5; i++ {
		// Walk time to the half-open point, fail the probe.
		now += 100
		if b.Next(now) != BreakerHalfOpen {
			t.Fatalf("round %d: expected half-open", i)
		}
		b.RecordFailure(now)
		if b.curCooldown > b.MaxCooldown {
			t.Fatalf("cooldown %v exceeds cap %v", b.curCooldown, b.MaxCooldown)
		}
	}
}

// TestBreakerOpensAndRecovers drives a client through an outage and a
// recovery: the breaker opens after Threshold consecutive losses
// (EvLinkDown), stops remote attempts while down, then a half-open
// probe restores remote execution (EvLinkUp).
func TestBreakerOpensAndRecovers(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyR, radio.Fixed{Cls: radio.Class4}, workTarget())
	// Outage for the first 3 transfers, then a healthy link. At this
	// size a retry is priced above local interpretation, so each
	// invocation attempts the exchange exactly once.
	fault := &scriptedFault{down: func(i int) bool { return i < 3 }}
	c.Link.Fault = fault
	c.Breaker.Threshold = 3
	c.Breaker.Cooldown = 0.2
	c.Breaker.MaxCooldown = 0.2

	args := []vm.Slot{vm.IntSlot(150)}
	// Three invocations: each loses its send, falls back locally, and
	// the third consecutive loss opens the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Invoke(context.Background(), "App", "work", args); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats.LinkDowns != 1 {
		t.Fatalf("LinkDowns = %d, want 1 (stats: %+v)", c.Stats.LinkDowns, c.Stats)
	}
	if c.Stats.Fallbacks != 3 {
		t.Errorf("Fallbacks = %d, want 3", c.Stats.Fallbacks)
	}
	if c.Breaker.State() != BreakerOpen {
		t.Fatalf("breaker state %v, want open", c.Breaker.State())
	}

	// While open (cooldown not elapsed) remote attempts cost nothing:
	// no new exchanges happen on the link.
	exBefore := c.Link.Exchanges
	if _, err := c.Invoke(context.Background(), "App", "work", args); err != nil {
		t.Fatal(err)
	}
	if c.Link.Exchanges != exBefore {
		t.Errorf("open breaker still produced %d exchanges", c.Link.Exchanges-exBefore)
	}

	// Walk the clock past the cooldown; the next invocation probes,
	// the link has healed, and remote execution resumes.
	c.Clock += 1
	if _, err := c.Invoke(context.Background(), "App", "work", args); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Probes == 0 {
		t.Error("expected a half-open probe")
	}
	if c.Stats.LinkUps != 1 {
		t.Errorf("LinkUps = %d, want 1", c.Stats.LinkUps)
	}
	if c.Breaker.State() != BreakerClosed {
		t.Errorf("breaker state %v, want closed", c.Breaker.State())
	}
}

// TestRetriesChargedAndCounted: a response-loss fault makes the first
// attempt fail after spending transmit energy; the retry succeeds and
// is visible in Stats, and both the timeout listen and backoff are
// charged. Size 3000 with a short timeout keeps the priced retry
// (remote + one timeout-listen risk) below local interpretation.
func TestRetriesChargedAndCounted(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyR, radio.Fixed{Cls: radio.Class4}, workTarget())
	c.Timeout = 0.001
	// Lose exactly the first reception; everything after succeeds.
	fault := &scriptedFault{down: func(i int) bool { return i == 1 }}
	c.Link.Fault = fault

	ref := newTestClient(t, p, StrategyR, radio.Fixed{Cls: radio.Class4}, workTarget())
	ref.Timeout = 0.001
	args := []vm.Slot{vm.IntSlot(3000)}
	res, err := c.Invoke(context.Background(), "App", "work", args)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Invoke(context.Background(), "App", "work", args)
	if err != nil {
		t.Fatal(err)
	}
	if res.I != want.I {
		t.Errorf("retried result %d, want %d", res.I, want.I)
	}
	if c.Stats.Retries != 1 {
		t.Errorf("Retries = %d, want 1", c.Stats.Retries)
	}
	if c.Stats.Fallbacks != 0 {
		t.Errorf("Fallbacks = %d; the retry should have succeeded remotely", c.Stats.Fallbacks)
	}
	if c.Stats.ModeCounts[ModeRemote] != 1 {
		t.Errorf("mode counts %v", c.Stats.ModeCounts)
	}
	// The faulty run must cost strictly more energy and time than the
	// fault-free reference: a wasted transmit, the timeout listen, and
	// the backoff listen all add up.
	if c.Energy() <= ref.Energy() {
		t.Errorf("faulty energy %v <= fault-free %v", c.Energy(), ref.Energy())
	}
	if c.Clock <= ref.Clock {
		t.Errorf("faulty clock %v <= fault-free %v", c.Clock, ref.Clock)
	}
	minExtra := energy.Energy(c.Link.Chip.RxPower(), c.Timeout)
	if extra := c.Energy() - ref.Energy(); extra < minExtra {
		t.Errorf("extra energy %v less than one timeout listen %v", extra, minExtra)
	}
}

// TestRetryBudgetExhausted: under a dead link the executor retries at
// most MaxRetries times, then falls back locally.
func TestRetryBudgetExhausted(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyR, radio.Fixed{Cls: radio.Class4}, workTarget())
	c.Link.Fault = radio.IIDLoss{P: 1}
	c.Breaker.Threshold = 100 // keep the breaker out of this test
	c.MaxRetries = 2
	c.Timeout = 0.001 // keep retries priced below local interpretation
	if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(3000)}); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Retries != 2 {
		t.Errorf("Retries = %d, want exactly MaxRetries (2)", c.Stats.Retries)
	}
	if c.Stats.Fallbacks == 0 {
		t.Error("expected a local fallback after the budget ran out")
	}
}

// TestRetrySkippedWhenLocalCheaper: when the estimator prices a retry
// above the best local mode, the executor falls back immediately.
func TestRetrySkippedWhenLocalCheaper(t *testing.T) {
	p := testProgram(t)
	// Class 1: 5.88 W transmit makes remote far costlier than local
	// interpretation for a small input.
	c := newTestClient(t, p, StrategyR, radio.Fixed{Cls: radio.Class1}, workTarget())
	c.Link.Fault = radio.IIDLoss{P: 1}
	c.Breaker.Threshold = 100
	if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(60)}); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Retries != 0 {
		t.Errorf("Retries = %d; a hopelessly expensive retry should be skipped", c.Stats.Retries)
	}
	if c.Stats.Fallbacks == 0 {
		t.Error("expected an immediate local fallback")
	}
}

// TestAllStrategiesSurviveBurstOutage is the robustness acceptance
// check at the core level: under a 20% outage with mean burst 5 every
// strategy completes every invocation with the correct result.
func TestAllStrategiesSurviveBurstOutage(t *testing.T) {
	p := testProgram(t)
	ref := vm.New(p, energy.MicroSPARCIIep())
	for _, s := range Strategies {
		c := newTestClient(t, p, s, radio.UniformChannel(rng.New(21)), workTarget())
		c.Link.Fault = radio.NewGilbertElliott(0.2, 5)
		for i := 0; i < 20; i++ {
			c.NewExecution()
			n := int32(100 + 40*i)
			res, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(n)})
			if err != nil {
				t.Fatalf("%v run %d: %v", s, i, err)
			}
			ref.ResetRun(nil)
			want, err := ref.InvokeByName("App", "work", []vm.Slot{vm.IntSlot(n)})
			if err != nil {
				t.Fatal(err)
			}
			if res.I != want.I {
				t.Fatalf("%v run %d: result %d, want %d", s, i, res.I, want.I)
			}
			c.StepChannel()
		}
		if c.Energy() <= 0 || c.Clock <= 0 {
			t.Errorf("%v: no energy/time accounted", s)
		}
	}
}

// TestFaultsStrictlyIncreaseCost: with identical seeds, a faulty run
// of the offloading strategy costs strictly more energy and time than
// the fault-free run — every loss leaves a wasted transmit plus a
// timeout listen behind. (The adaptive strategies keep this workload
// local on a Class-4 channel, so only R exercises the radio here;
// their behaviour under outage is covered by the survival test.)
func TestFaultsStrictlyIncreaseCost(t *testing.T) {
	p := testProgram(t)
	for _, s := range []Strategy{StrategyR} {
		run := func(fault radio.FaultModel) (energy.Joules, energy.Seconds) {
			c := newTestClient(t, p, s, radio.Fixed{Cls: radio.Class4}, workTarget())
			c.Link.Fault = fault
			for i := 0; i < 10; i++ {
				c.NewExecution()
				if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(400)}); err != nil {
					t.Fatalf("%v: %v", s, err)
				}
			}
			return c.Energy(), c.Clock
		}
		eClean, tClean := run(nil)
		eFault, tFault := run(radio.NewGilbertElliott(0.25, 4))
		if eFault <= eClean {
			t.Errorf("%v: faulty energy %v <= clean %v", s, eFault, eClean)
		}
		if tFault <= tClean {
			t.Errorf("%v: faulty time %v <= clean %v", s, tFault, tClean)
		}
	}
}

// TestStatsCarryRadioTelemetry: the EvInvoke stream surfaces link
// counters through the Stats sink.
func TestStatsCarryRadioTelemetry(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyR, radio.Fixed{Cls: radio.Class4}, workTarget())
	c.Link.Fault = radio.IIDLoss{P: 0.5}
	for i := 0; i < 6; i++ {
		c.NewExecution()
		if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(150)}); err != nil {
			t.Fatal(err)
		}
	}
	tel := c.Stats.Radio
	if tel.Exchanges == 0 {
		t.Fatal("Stats.Radio carries no exchanges")
	}
	if tel != c.Link.Telemetry() {
		t.Errorf("Stats.Radio %+v diverges from the link %+v", tel, c.Link.Telemetry())
	}
	if tel.Losses == 0 {
		t.Error("expected losses under a 50% loss fault")
	}
}

// TestDeterministicUnderFaults: identical seeds with fault injection
// give identical energy, clock and stats.
func TestDeterministicUnderFaults(t *testing.T) {
	p := testProgram(t)
	run := func() (energy.Joules, energy.Seconds, Stats) {
		c := newTestClient(t, p, StrategyAA, radio.UniformChannel(rng.New(5)), workTarget())
		c.Link.Fault = radio.NewGilbertElliott(0.3, 4)
		for i := 0; i < 15; i++ {
			c.NewExecution()
			if _, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(int32(100 + 50*i))}); err != nil {
				t.Fatal(err)
			}
			c.StepChannel()
		}
		return c.Energy(), c.Clock, *c.Stats
	}
	e1, t1, s1 := run()
	e2, t2, s2 := run()
	if e1 != e2 || t1 != t2 {
		t.Errorf("energy/time diverged: (%v, %v) vs (%v, %v)", e1, t1, e2, t2)
	}
	if fmt.Sprintf("%+v", s1) != fmt.Sprintf("%+v", s2) {
		t.Errorf("stats diverged: %+v vs %+v", s1, s2)
	}
}
