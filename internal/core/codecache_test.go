package core

import (
	"context"

	"testing"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/jit"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
	"greenvm/internal/vm"
)

// TestEvictionRechargesCompileEnergy: once the LRU evicts a body,
// using it again within the same execution pays the recorded compile
// energy a second time.
func TestEvictionRechargesCompileEnergy(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyL2, radio.Fixed{Cls: radio.Class4}, workTarget(), vecsumTarget())
	c.Cache.MaxBytes = 150
	mW := p.FindMethod("App", "work")

	argsW := []vm.Slot{vm.IntSlot(100)}
	if _, err := c.Invoke(context.Background(), "App", "work", argsW); err != nil {
		t.Fatal(err)
	}
	e1 := c.VM.Acct.Component(energy.CompCompile)
	if e1 <= 0 {
		t.Fatal("first invocation should charge compilation")
	}

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
	// The LRU must have unlinked the oldest bodies — work's plan.
	if c.planLinked(mW, jit.Level2) {
		t.Error("work's plan should no longer be fully linked after eviction")
	}
	e2 := c.VM.Acct.Component(energy.CompCompile)

	if _, err := c.Invoke(context.Background(), "App", "work", argsW); err != nil {
		t.Fatal(err)
	}
	if e3 := c.VM.Acct.Component(energy.CompCompile); e3 <= e2 {
		t.Errorf("re-using an evicted body should re-charge compile energy (%v -> %v)", e2, e3)
	}
}

// alwaysDownload wraps a policy and forces every compilation to the
// download path, exercising the client's remote-compile machinery
// regardless of pricing.
type alwaysDownload struct{ policy }

func (alwaysDownload) download(*Client, *bytecode.Method, jit.Level) bool { return true }

// TestEvictionRedownloadsBodies: under adaptive compilation, evicted
// downloaded bodies are fetched from the server again on next use and
// the receive energy is re-charged (the simulator reuses the artifact
// but the fresh classloader has no native code).
func TestEvictionRedownloadsBodies(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyAA, radio.Fixed{Cls: radio.Class4}, workTarget(), vecsumTarget())
	c.policy = alwaysDownload{c.policy}
	c.Cache.MaxBytes = 150
	mW := p.FindMethod("App", "work")
	mV := p.FindMethod("App", "vecsum")

	if err := c.ensurePlanCompiled(mW, jit.Level2); err != nil {
		t.Fatal(err)
	}
	d1 := c.Stats.RemoteCompiles
	if d1 == 0 {
		t.Fatal("forced download policy should download bodies")
	}
	if c.Stats.LocalCompiles != 0 {
		t.Fatalf("LocalCompiles = %d, want 0 under forced downloads", c.Stats.LocalCompiles)
	}

	if err := c.ensurePlanCompiled(mV, jit.Level2); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Evictions == 0 {
		t.Fatal("expected evictions under a 150-byte code cache")
	}
	d2 := c.Stats.RemoteCompiles
	rx2 := c.VM.Acct.Component(energy.CompRadioRx)

	if err := c.ensurePlanCompiled(mW, jit.Level2); err != nil {
		t.Fatal(err)
	}
	if c.Stats.RemoteCompiles <= d2 {
		t.Error("evicted bodies should be re-downloaded on next use")
	}
	if rx3 := c.VM.Acct.Component(energy.CompRadioRx); rx3 <= rx2 {
		t.Errorf("re-download should re-charge receive energy (%v -> %v)", rx2, rx3)
	}
}
