package core

import (
	"math"
	"slices"
	"testing"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/lang"
	"greenvm/internal/rng"
	"greenvm/internal/vm"
)

// sharedTestClient builds a client of p on a fixed channel, registered
// with tg's profile prof and attached to memo (none when nil).
func sharedTestClient(p *bytecode.Program, s Strategy, memo *SharedMemo, tg *Target, prof *Profile) (*Client, error) {
	c := New(ClientConfig{ID: "client", Prog: p, Server: NewServer(p), Strategy: s, Seed: 7},
		WithSharedMemo(memo))
	return c, c.Register(tg, prof)
}

// runExecutions runs tg on each size with input seed 7 and returns the
// runs replayed from a shared memo meanwhile.
func runExecutions(t *testing.T, c *Client, tg *Target, sizes ...int) int64 {
	t.Helper()
	before := sharedReplays.Load()
	for _, n := range sizes {
		if err := c.RunExecution(tg, n, 7); err != nil {
			t.Fatal(err)
		}
	}
	return sharedReplays.Load() - before
}

// sameEnergy reports whether two clients charged bit-identical energy
// and time.
func sameEnergy(a, b *Client) bool {
	return math.Float64bits(float64(a.Energy())) == math.Float64bits(float64(b.Energy())) &&
		math.Float64bits(float64(a.Clock)) == math.Float64bits(float64(b.Clock))
}

// TestSharedMemoKeysOnPlacement: a client whose L2 bodies sit at other
// addresses than the recording client's does not replay the recorded
// L2 run, which cost a cache miss more there, and charges what it
// charges with replay off. A client whose placements equal its own
// then replays its run.
func TestSharedMemoKeysOnPlacement(t *testing.T) {
	p := testProgram(t)
	tg := vecsumTarget()
	prof, err := newProfiler(p).ProfileTarget(tg)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewSharedMemo()
	// The recorder compiles the plan at L1, then at L2, so its L2 body
	// follows its L1 body.
	rec, err := sharedTestClient(p, StrategyL1, memo, tg, prof)
	if err != nil {
		t.Fatal(err)
	}
	runExecutions(t, rec, tg, 128)
	rec.Strategy, rec.policy = StrategyL2, newPolicy(StrategyL2)
	runExecutions(t, rec, tg, 256)

	l2, err := sharedTestClient(p, StrategyL2, memo, tg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if n := runExecutions(t, l2, tg, 256); n != 0 {
		t.Errorf("an L2-only client replayed %d runs recorded over other placements", n)
	}
	var deltas []energy.Delta
	for k, runs := range memo.runs {
		for _, r := range runs {
			if k.mode == ModeL2 {
				deltas = append(deltas, r.delta)
			}
		}
	}
	if len(deltas) != 2 || deltas[0] == deltas[1] {
		t.Errorf("L2 runs recorded: %+v; want two that differ", deltas)
	}
	ref, err := sharedTestClient(p, StrategyL2, nil, tg, prof)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer SetReplay(SetReplay(false))
		runExecutions(t, ref, tg, 256)
	}()
	if !sameEnergy(l2, ref) {
		t.Errorf("L2-only client: %v over %v s, replay off %v over %v s", l2.Energy(), l2.Clock, ref.Energy(), ref.Clock)
	}
	twin, err := sharedTestClient(p, StrategyL2, memo, tg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if n := runExecutions(t, twin, tg, 256); n != 1 {
		t.Errorf("a client placing what the L2-only client placed replayed %d runs, want 1", n)
	}
	if !sameEnergy(twin, ref) {
		t.Errorf("replaying client: %v over %v s, replay off %v over %v s", twin.Energy(), twin.Clock, ref.Energy(), ref.Clock)
	}
}

// helpersSrc calls its helpers in an order that depends on the input,
// so where an interpreted run places their bytecode depends on which
// input a client interprets first. f's branch is never taken; its
// bytecode sits between f's entry and f's loop, so the order of f and g
// changes which cache lines the executed bytecode falls on, and with it
// the energy of an interpreted run.
const helpersSrc = `
class App {
  potential static int run(int n) {
    if (n % 2 == 0) { return f(n) + g(n); }
    return g(n) + f(n);
  }
  static int f(int x) {
    int s = 0;
    if (x < 0) { s = s * 3 + x; s = s * 3 + x; s = s * 3 + x; }
    for (int i = 0; i < x; i = i + 1) { s = s + i * 3; }
    return s;
  }
  static int g(int x) {
    int s = 1;
    for (int i = 0; i < x; i = i + 1) { s = s + i % 7; }
    return s;
  }
}
`

// TestSharedReplayPlacesBytecode: a client that replays an interpreted
// run from the shared memo places the bytecode the recorded run placed,
// so its next, real run charges what it would after a real first run
// and leaves the same placement log.
func TestSharedReplayPlacesBytecode(t *testing.T) {
	p, err := lang.Compile(helpersSrc)
	if err != nil {
		t.Fatal(err)
	}
	tg := &Target{
		Class:  "App",
		Method: "run",
		MakeArgs: func(v *vm.VM, size int, r *rng.RNG) ([]vm.Slot, error) {
			return []vm.Slot{vm.IntSlot(int32(size))}, nil
		},
		SizeOf: func(v *vm.VM, args []vm.Slot) (float64, error) {
			return float64(args[0].I), nil
		},
		ProfileSizes: []int{10, 20, 40, 80, 160},
	}
	prof, err := newProfiler(p).ProfileTarget(tg)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewSharedMemo()
	rec, err := sharedTestClient(p, StrategyI, memo, tg, prof)
	if err != nil {
		t.Fatal(err)
	}
	runExecutions(t, rec, tg, 40)

	c, err := sharedTestClient(p, StrategyI, memo, tg, prof)
	if err != nil {
		t.Fatal(err)
	}
	if n := runExecutions(t, c, tg, 40); n != 1 {
		t.Fatalf("replayed %d runs from the shared memo, want 1", n)
	}
	runExecutions(t, c, tg, 41)

	ref, err := sharedTestClient(p, StrategyI, nil, tg, prof)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer SetReplay(SetReplay(false))
		runExecutions(t, ref, tg, 40, 41)
	}()
	if !slices.Equal(c.VM.Placements(), ref.VM.Placements()) {
		t.Errorf("placement log %v, replay off %v", c.VM.Placements(), ref.VM.Placements())
	}
	if !sameEnergy(c, ref) {
		t.Errorf("%v over %v s, replay off %v over %v s", c.Energy(), c.Clock, ref.Energy(), ref.Clock)
	}
}

// TestSharedMemoBounded: the shared memo evicts first in, first out
// past its entry cap, and a run it recorded twice is kept once.
func TestSharedMemoBounded(t *testing.T) {
	memo := NewSharedMemo()
	log := []vm.Placement{{Base: 4, Size: 8}}
	for i := 0; i <= sharedMaxEntries; i++ {
		k := runKey{in: inputKey{size: i}}
		memo.record(k, log, energy.Delta{Cycles: uint64(i)}, nil)
		memo.record(k, log, energy.Delta{Cycles: uint64(i)}, nil)
	}
	if len(memo.order) != sharedMaxEntries {
		t.Errorf("%d entries held, want the cap %d", len(memo.order), sharedMaxEntries)
	}
	if memo.lookup(runKey{in: inputKey{size: 0}}, log) != nil {
		t.Error("the first entry survived past the cap")
	}
	r := memo.lookup(runKey{in: inputKey{size: sharedMaxEntries}}, log)
	if r == nil || r.delta.Cycles != sharedMaxEntries {
		t.Errorf("the newest entry is %+v", r)
	}
	if memo.lookup(runKey{in: inputKey{size: sharedMaxEntries}}, []vm.Placement{{Base: 4, Size: 12}}) != nil {
		t.Error("a run recorded from one log was found from another")
	}
}
