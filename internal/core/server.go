package core

import (
	"context"
	"fmt"
	"sync"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
	"greenvm/internal/vm"
)

// Remote is the server-side interface the client depends on: execute
// an offloaded method, or hand out a pre-compiled native body. It is
// implemented by the in-process Server, by the fleet's backend pools
// (MultiRemote), and by the TCP adapter (DialServer) that talks to a
// server in another process, mirroring the paper's two-workstation
// prototype. ctx cancels in-flight calls
// (a nil ctx is tolerated and means context.Background()); an
// overloaded implementation may reject with a BusyError.
type Remote interface {
	Execute(ctx context.Context, clientID, class, method string, argBytes []byte,
		reqTime, estEnd energy.Seconds) (resBytes []byte, serverTime energy.Seconds, err error)
	CompiledBody(ctx context.Context, qname string, level jit.Level) (*isa.Code, int, error)
}

// Server is the resource-rich remote host: it executes offloaded
// methods reflectively (Fig 4) and serves pre-compiled native method
// bodies for remote compilation (§3.3). Server energy is not modelled;
// server time is (it determines how long the client sleeps).
//
// The server keeps a "mobile status table" with each client's request
// time and estimated power-down duration: when a result is ready
// before the client wakes, it is queued rather than transmitted into a
// powered-down receiver.
type Server struct {
	Prog  *bytecode.Program
	Model *energy.CPUModel

	// RequestOverhead is the fixed server-side handling time per
	// request (dispatch, scheduling).
	RequestOverhead energy.Seconds

	mu     sync.Mutex
	vm     *vm.VM
	bodies map[*bytecode.Method][3]*isa.Code
	status map[string]*MobileStatus
	replay replayMemo
}

// Host-side replay bounds: a server keeps the outcome of its recent
// distinct executions so a repeated offload costs a lookup instead of
// a full ISA/cache simulation; the bounds cap what one server holds.
const (
	replayMaxEntries = 256
	replayMaxBytes   = 1 << 20
)

// replayKey identifies an execution by what determines its outcome:
// the method and its serialized arguments.
type replayKey struct {
	m    *bytecode.Method
	args string
}

// replayEntry is one recorded execution: its serialized result and the
// VM time it took, without the per-request overhead.
type replayEntry struct {
	res    []byte
	vmTime energy.Seconds
}

// replayMemo is the server's execution memo, a map with FIFO eviction.
// A replay is exact: every real run starts from a fresh heap, flushed
// caches and a zero account, and every code or bytecode address a run
// touches is fixed once first resolved, so re-running a key would give
// the same bytes and the same time. Callers hold Server.mu.
type replayMemo struct {
	entries map[replayKey]replayEntry
	order   []replayKey
	bytes   int
}

func (r *replayMemo) put(k replayKey, e replayEntry) {
	if r.entries == nil {
		r.entries = map[replayKey]replayEntry{}
	}
	r.entries[k] = e
	r.order = append(r.order, k)
	r.bytes += len(k.args) + len(e.res)
	for len(r.order) > replayMaxEntries || r.bytes > replayMaxBytes {
		old := r.order[0]
		r.order = r.order[1:]
		r.bytes -= len(old.args) + len(r.entries[old].res)
		delete(r.entries, old)
	}
}

// MobileStatus is one row of the mobile status table.
type MobileStatus struct {
	RequestTime  energy.Seconds
	EstimatedEnd energy.Seconds // when the client expects to wake
	LastResult   []byte         // queued result, if the client slept past completion
	Queued       bool
}

// NewServer builds a server around the (shared) program. The paper's
// dynamic-download model has the server own the application and ship
// it to clients, so client and server agree on the class files.
func NewServer(prog *bytecode.Program) *Server {
	model := energy.ServerSPARC()
	s := &Server{
		Prog:            prog,
		Model:           model,
		RequestOverhead: 200e-6, // 200us dispatch overhead
		vm:              vm.New(prog, model),
		bodies:          map[*bytecode.Method][3]*isa.Code{},
		status:          map[string]*MobileStatus{},
	}
	s.vm.Dispatch = vm.DispatchFunc(s.dispatch)
	return s
}

// dispatch runs everything the server executes at the highest
// optimization level (the server is resource-rich).
func (s *Server) dispatch(m *bytecode.Method) *isa.Code {
	if c := s.bodies[m][jit.Level3-1]; c != nil {
		return c
	}
	code, _, err := jit.CompileCached(s.Prog, m, jit.Level3)
	if err != nil {
		// Fall back to interpretation for uncompilable methods.
		return nil
	}
	s.vm.InstallCode(code)
	b := s.bodies[m]
	b[jit.Level3-1] = code
	s.bodies[m] = b
	return code
}

// Status returns the mobile status table row for a client (creating
// it on first use).
func (s *Server) Status(clientID string) *MobileStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.status[clientID]
	if !ok {
		st = &MobileStatus{}
		s.status[clientID] = st
	}
	return st
}

// noteRequest updates the client's mobile status table row for one
// request served from the session layer's cache.
func (s *Server) noteRequest(clientID string, reqTime, estEnd, serverTime energy.Seconds, resBytes []byte) {
	st := s.Status(clientID)
	s.mu.Lock()
	defer s.mu.Unlock()
	st.RequestTime = reqTime
	st.EstimatedEnd = estEnd
	// Mobile status table check: if the computation finished before
	// the client's estimated wake time, the result is queued until the
	// client wakes (paper §2).
	if reqTime+serverTime < estEnd {
		st.LastResult = resBytes
		st.Queued = true
	} else {
		st.Queued = false
	}
}

// Execute reflectively invokes class.method with the serialized
// arguments and returns the serialized result plus the server
// computation time. reqTime and estEnd update the mobile status table.
// A request whose method and arguments the server has executed
// recently replays the recorded result and VM time instead of running
// again (see replayMemo).
func (s *Server) Execute(ctx context.Context, clientID, class, method string, argBytes []byte,
	reqTime, estEnd energy.Seconds) (resBytes []byte, serverTime energy.Seconds, err error) {

	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	m := s.Prog.FindMethod(class, method)
	if m == nil {
		return nil, 0, fmt.Errorf("core: server has no method %s.%s", class, method)
	}
	st, ok := s.status[clientID]
	if !ok {
		st = &MobileStatus{}
		s.status[clientID] = st
	}
	st.RequestTime = reqTime
	st.EstimatedEnd = estEnd

	key := replayKey{m: m, args: string(argBytes)}
	e, ok := s.replay.entries[key]
	if !ok {
		if e, err = s.run(m, argBytes); err != nil {
			return nil, 0, err
		}
		s.replay.put(key, e)
	}
	resBytes = e.res
	serverTime = e.vmTime + s.RequestOverhead

	// Mobile status table check: if the computation finished before
	// the client's estimated wake time, the result is queued until the
	// client wakes (paper §2).
	if reqTime+serverTime < estEnd {
		st.LastResult = resBytes
		st.Queued = true
	} else {
		st.Queued = false
	}
	return resBytes, serverTime, nil
}

// run executes m on the server VM from a fresh heap, flushed caches
// and a zero account. Callers hold s.mu.
func (s *Server) run(m *bytecode.Method, argBytes []byte) (replayEntry, error) {
	s.vm.ResetRun(nil)
	s.vm.Acct.Reset()
	args, err := s.vm.Heap.DecodeArgs(m, argBytes)
	if err != nil {
		return replayEntry{}, err
	}
	res, err := s.vm.Invoke(m, args)
	if err != nil {
		return replayEntry{}, fmt.Errorf("core: remote execution of %s failed: %w", m.QName(), err)
	}
	resBytes, err := s.vm.Heap.EncodeValue(m.Ret.Kind, res)
	if err != nil {
		return replayEntry{}, err
	}
	return replayEntry{res: resBytes, vmTime: s.vm.Acct.Time()}, nil
}

// CompiledBody returns (and caches) the native body of the named
// method at the given level, for download by clients, along with its
// size in bytes. The body is compiled for the client's ISA — the
// server "supports a limited number of preferred client types".
func (s *Server) CompiledBody(ctx context.Context, qname string, level jit.Level) (*isa.Code, int, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var m *bytecode.Method
	for _, cand := range s.Prog.Methods {
		if cand.QName() == qname {
			m = cand
			break
		}
	}
	if m == nil {
		return nil, 0, fmt.Errorf("core: server has no method %s", qname)
	}
	if c := s.bodies[m][level-1]; c != nil {
		return cloneCode(c), c.SizeBytes(), nil
	}
	code, st, err := jit.CompileCached(s.Prog, m, level)
	if err != nil {
		return nil, 0, err
	}
	b := s.bodies[m]
	b[level-1] = code
	s.bodies[m] = b
	return cloneCode(code), st.CodeBytes(), nil
}

// cloneCode copies a body's header so each client installs it at its
// own code address without racing on Base. The instruction slice is
// immutable after compilation and is shared.
func cloneCode(c *isa.Code) *isa.Code {
	cp := *c
	return &cp
}
