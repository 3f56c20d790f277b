package core

import (
	"context"
	"fmt"

	"greenvm/internal/energy"
)

// Multi-backend offloading: the paper prices *whether* to offload to
// its single resource-rich server; a deployed fleet prices *which* of
// a pool of servers to offload to. The client keeps one busy-rate
// EWMA per backend (the same admission-pricing seam it already uses
// for a single server), prices its offload on the cheapest backend,
// and passes the least-busy backend as a placement hint. The pool's
// placement policy may honour the hint (client-side pick-cheapest) or
// override it (consistent-hash session affinity, power-of-two-choices
// on the pool's own queue state); the answer reports which backend
// actually served — or shed — the request, so the client attributes
// the outcome to the right EWMA.

// BackendError attributes a failed remote exchange to one backend of a
// pool, so the client strikes that backend's circuit breaker instead
// of blinding itself to the N-1 healthy ones. It unwraps to the
// underlying error (typically radio.ErrConnectionLost).
type BackendError struct {
	// Backend names the backend the exchange was attributed to.
	Backend string
	// Err is the underlying failure.
	Err error
}

func (e *BackendError) Error() string {
	return fmt.Sprintf("core: backend %s: %v", e.Backend, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *BackendError) Unwrap() error { return e.Err }

// MultiRemote is a Remote that fans the client out to a pool of named
// backends. Execute (the plain Remote path) lets the pool place the
// request itself; ExecuteOn carries the client's placement hint and
// reports the backend that served the request (the pool's placement
// policy may override the hint). A shed request carries the shedding
// backend in its BusyError.
type MultiRemote interface {
	Remote
	// Backends lists the stable backend IDs, in placement order. The
	// client prices its offload across these entries.
	Backends() []string
	// ExecuteOn is Execute with a placement hint (a backend ID, ""
	// for no preference); servedBy is the backend that ran the
	// request.
	ExecuteOn(ctx context.Context, backend, clientID, class, method string, argBytes []byte,
		reqTime, estEnd energy.Seconds) (res []byte, servTime energy.Seconds, servedBy string, err error)
	// ProbeBackend answers the half-open probe of a per-backend circuit
	// breaker: nil when the named backend is up and reachable at the
	// client's virtual time at (simulated pools answer from the
	// backend's state at exactly that instant). The client charges the
	// probe's radio round trip itself.
	ProbeBackend(ctx context.Context, backend string, at energy.Seconds) error
}
