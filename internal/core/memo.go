package core

import "greenvm/internal/bytecode"

// Handset replay. Every execution RunExecution runs starts from one
// canonical state: classes reloaded, a heap holding exactly the input
// for (size, input seed), a fresh frame stack and flushed caches. Each
// code body and bytecode stream a client places keeps its address for
// the client's lifetime, and core and memory energy are integer counts
// (energy.Account). So a local run of the execution's entry invocation
// charges the same counts, cycles and float components every time its
// method, mode and input repeat, whether it runs first or after a
// failed offload: nothing before it in the execution touches the heap
// or the caches except the helper's size read, which is the same every
// time. A client records the account delta of the first such run and
// replays it on every repeat instead of simulating again.
//
// Only the entry invocation of RunExecution consults the memo, and
// RunExecution discards its result, so the empty result slot a replay
// returns is never read. Invoke never replays. The memo is per client:
// two clients that compile or interpret in different orders place
// their code at different addresses.

// runKey identifies one local run of an execution's entry invocation.
type runKey struct {
	in   inputKey
	mode Mode
}

// replayOff makes every run real; only the replay oracle tests set it.
var replayOff bool

// replayKey returns the memo key of a local run of m in mode, and
// whether the run may be replayed or recorded: only the entry
// invocation of the RunExecution in flight may.
func (c *Client) replayKey(m *bytecode.Method, mode Mode) (runKey, bool) {
	if c.entry == nil || c.entry.m != m || replayOff {
		return runKey{}, false
	}
	return runKey{in: *c.entry, mode: mode}, true
}
