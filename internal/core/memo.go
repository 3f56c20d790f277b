package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/vm"
)

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
// returns is never read. Invoke never replays.
//
// Replay has two tiers. A client's own memo keys on (input, mode): its
// placements only grow, so a repeat touches what the first run touched
// at the same addresses. Behind it, the clients of one fleet run may
// share a SharedMemo keyed on (input, mode, placement log at run
// start): two clients that compiled or interpreted in different orders
// place their code at different addresses, and equal logs are what
// makes one client's run stand for another's.

// runKey identifies one local run of an execution's entry invocation.
type runKey struct {
	in   inputKey
	mode Mode
}

// replayOff makes every run real; only the replay oracle tests set it.
var replayOff bool

// sharedReplays counts the runs replayed from a SharedMemo in this
// process; only the replay oracle tests read it.
var sharedReplays atomic.Int64

// replayKey returns the memo key of a local run of m in mode, and
// whether the run may be replayed or recorded: only the entry
// invocation of the RunExecution in flight may.
func (c *Client) replayKey(m *bytecode.Method, mode Mode) (runKey, bool) {
	if c.entry == nil || c.entry.m != m || replayOff {
		return runKey{}, false
	}
	return runKey{in: *c.entry, mode: mode}, true
}

// replay charges the recorded run for k from the client's own memo or,
// failing that, from the shared one, and reports whether it did. A
// shared replay also places the bytecode streams the recorded run
// placed, in its order, so the client's later runs find its code where
// a real run would have left it, and seeds the client's own memo. Only
// an own-memo hit emits EvMemoHit: Stats.MemoHits counts a client's
// repeats of its own runs, whichever client simulated first.
func (c *Client) replay(m *bytecode.Method, k runKey) bool {
	if d, ok := c.replays[k]; ok {
		c.VM.Acct.Apply(d)
		c.Events.Emit(Event{Kind: EvMemoHit, Method: m, Mode: k.mode, At: c.Clock})
		return true
	}
	r := c.shared.lookup(k, c.VM.Placements())
	if r == nil {
		return false
	}
	c.VM.Acct.Apply(r.delta)
	for _, pm := range r.placed {
		c.VM.PlaceBytecode(pm)
	}
	c.remember(k, r.delta)
	sharedReplays.Add(1)
	return true
}

// record stores the delta of a real run for k in both tiers; log is the
// placement log at the run's start.
func (c *Client) record(k runKey, log []vm.Placement, d energy.Delta) {
	c.remember(k, d)
	c.shared.record(k, log, d, c.VM.Placements()[len(log):])
}

// remember stores d for k in the client's own memo.
func (c *Client) remember(k runKey, d energy.Delta) {
	if c.replays == nil {
		c.replays = map[runKey]energy.Delta{}
	}
	c.replays[k] = d
}

// SharedMemo is the replay tier the clients of one fleet run share: the
// first client to simulate an entry run records its delta under
// (input, mode, placement log at run start), and every later client
// with the same key replays it. The log is compared entry by entry,
// never by a hash, so a replay stands only for a run whose every
// fetch address would be the same.
//
// The key leaves out what else a local run reads: the CPU model, the
// cache geometry and the code-cache budget. Clients that share a memo
// must agree on them; fleet.Run guarantees it by building every client
// with New's model and the default budget and keeping its memo to
// itself. A SharedMemo is safe for concurrent use: two clients that
// miss together both simulate, and record the same delta.
type SharedMemo struct {
	mu    sync.Mutex
	runs  map[runKey][]*sharedRun
	order []*sharedRun
	bytes int
}

// Shared-memo bounds, evicting first-in first-out as the server's
// replayMemo does. The 100k-client city run records 2 distinct runs
// and the replay oracle's fleet of all seven strategies 11, so the
// bounds only guard against cohorts far more varied than these.
const (
	sharedMaxEntries = 256
	sharedMaxBytes   = 1 << 20
)

// sharedRun is one recorded run: the placement log at its start, its
// account delta, and the bytecode streams it placed, in order. Runs of
// one key are told apart by comparing their logs.
type sharedRun struct {
	key    runKey
	log    []vm.Placement
	delta  energy.Delta
	placed []*bytecode.Method
}

// size approximates the bytes an entry holds.
func (r *sharedRun) size() int { return 32*len(r.log) + 8*len(r.placed) + 128 }

// NewSharedMemo returns an empty shared replay memo.
func NewSharedMemo() *SharedMemo {
	return &SharedMemo{runs: map[runKey][]*sharedRun{}}
}

// WithSharedMemo attaches a shared replay memo behind the client's own.
func WithSharedMemo(s *SharedMemo) Option {
	return func(c *Client) { c.shared = s }
}

// lookup returns the run recorded for k from a log equal to log, or
// nil. A nil memo holds nothing.
func (s *SharedMemo) lookup(k runKey, log []vm.Placement) *sharedRun {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.find(k, log)
}

// find returns the run recorded for k from log. Callers hold s.mu.
func (s *SharedMemo) find(k runKey, log []vm.Placement) *sharedRun {
	for _, r := range s.runs[k] {
		if slices.Equal(r.log, log) {
			return r
		}
	}
	return nil
}

// record stores a real run for k that started from log and then placed
// the entries of after. A run that placed a native body is not
// recorded: a replay re-places bytecode streams only.
func (s *SharedMemo) record(k runKey, log []vm.Placement, d energy.Delta, after []vm.Placement) {
	if s == nil {
		return
	}
	placed := make([]*bytecode.Method, len(after))
	for i, p := range after {
		if p.Method == nil {
			return
		}
		placed[i] = p.Method
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.find(k, log) != nil {
		return
	}
	r := &sharedRun{key: k, log: log, delta: d, placed: placed}
	s.runs[k] = append(s.runs[k], r)
	s.order = append(s.order, r)
	s.bytes += r.size()
	for len(s.order) > sharedMaxEntries || s.bytes > sharedMaxBytes {
		old := s.order[0]
		s.order = s.order[1:]
		s.bytes -= old.size()
		b := s.runs[old.key]
		if i := slices.Index(b, old); i >= 0 {
			b = slices.Delete(b, i, i+1)
		}
		if len(b) == 0 {
			delete(s.runs, old.key)
		} else {
			s.runs[old.key] = b
		}
	}
}
