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
// for a single server), ranks a remote candidate per backend, and
// passes its cheapest backend as a placement hint. The pool's
// placement policy may honour the hint (client-side pick-cheapest) or
// override it (consistent-hash session affinity, power-of-two-choices
// on advertised queue depth); the answer reports which backend
// actually served — or shed — the request, so the client attributes
// the outcome to the right EWMA.

// BackendCandidate is one backend's priced remote candidate in an
// offload decision: the client's current busy-rate estimate for the
// backend and the per-invocation remote energy inflated by it.
type BackendCandidate struct {
	// ID names the backend ("" for a single anonymous server).
	ID string
	// Busy is the client's busy-rate EWMA for the backend (0 = no
	// recent admission rejections).
	Busy float64
	// Cost is the estimated per-invocation offload energy (J), the
	// base remote energy inflated by 1/(1-Busy).
	Cost float64
	// Open marks a backend whose per-backend circuit breaker currently
	// holds it down: it is priced for observability but excluded from
	// the cheapest-candidate pick (unless every backend is open).
	Open bool
}

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

// BackendProber is implemented by MultiRemotes that can answer a
// per-backend liveness question — the half-open probe of a
// per-backend circuit breaker. The probe is charged to the client's
// radio account by the caller; at is the client's virtual time, so
// simulated pools (internal/fleet) answer from the backend's state at
// exactly that instant. A MultiRemote without this interface gets
// link-level probes only (the round trip proves the radio path, and
// the backend breaker closes on it).
type BackendProber interface {
	// ProbeBackend reports nil when the named backend is up and
	// reachable at the given virtual time.
	ProbeBackend(ctx context.Context, backend string, at energy.Seconds) error
}

// MultiRemote is a Remote that fans the client out to a pool of named
// backends. Execute (the plain Remote path) lets the pool place the
// request itself; ExecuteOn carries the client's placement hint and
// reports the backend that served the request (the pool's placement
// policy may override the hint). A shed request carries the shedding
// backend in its BusyError.
type MultiRemote interface {
	Remote
	// Backends lists the stable backend IDs, in placement order. The
	// client prices one remote candidate per entry.
	Backends() []string
	// ExecuteOn is Execute with a placement hint (a backend ID, ""
	// for no preference); servedBy is the backend that ran the
	// request.
	ExecuteOn(ctx context.Context, backend, clientID, class, method string, argBytes []byte,
		reqTime, estEnd energy.Seconds) (res []byte, servTime energy.Seconds, queued bool, servedBy string, err error)
}
