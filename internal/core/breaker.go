package core

import (
	"fmt"

	"greenvm/internal/energy"
)

// Link circuit breaker: under a burst outage every remote attempt
// costs a full timeout listen before the §3.2 fallback kicks in, so a
// client that keeps trying pays the worst case once per invocation.
// The breaker turns K consecutive losses into a Down verdict that the
// policies consult before pricing remote options at all; after a
// cooldown of virtual time a small half-open probe (charged to the
// radio account like any other traffic) re-opens the link. State
// transitions surface as EvLinkDown/EvLinkUp events.

// BreakerState is the circuit breaker's state.
type BreakerState int

// The breaker states.
const (
	// BreakerClosed: the link is believed up; remote options are
	// considered normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the link is believed down; remote options are off
	// the table until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; the next remote
	// consideration sends a probe to test the link.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// Breaker is a link circuit breaker driven by the client's virtual
// clock. It is a pure state machine: the Client records successes and
// failures and runs the half-open probes.
type Breaker struct {
	// Threshold is the number of consecutive losses that open the
	// breaker.
	Threshold int
	// Cooldown is how long (virtual time) the breaker stays open
	// before a half-open probe; it doubles after every failed probe,
	// capped at MaxCooldown.
	Cooldown    energy.Seconds
	MaxCooldown energy.Seconds
	// ProbeBytes is the payload size of the half-open probe message.
	ProbeBytes int

	state       BreakerState
	consecutive int
	reopenAt    energy.Seconds
	curCooldown energy.Seconds
}

// NewBreaker returns a breaker with defaults: 3 consecutive losses
// open it, 0.5 s initial cooldown doubling to at most 8 s, 16-byte
// probes.
func NewBreaker() *Breaker {
	return &Breaker{
		Threshold:   3,
		Cooldown:    0.5,
		MaxCooldown: 8,
		ProbeBytes:  16,
	}
}

// cloneConfig returns a fresh Closed breaker with the same tuning
// (threshold, cooldowns, probe size) and no accumulated state — the
// per-backend breakers a pooled client derives from its link breaker
// prototype.
func (b *Breaker) cloneConfig() *Breaker {
	return &Breaker{
		Threshold:   b.Threshold,
		Cooldown:    b.Cooldown,
		MaxCooldown: b.MaxCooldown,
		ProbeBytes:  b.ProbeBytes,
	}
}

// State returns the current state without advancing it.
func (b *Breaker) State() BreakerState { return b.state }

// Next advances Open to HalfOpen once the cooldown has elapsed at the
// given virtual time and returns the resulting state.
func (b *Breaker) Next(now energy.Seconds) BreakerState {
	if b.state == BreakerOpen && now >= b.reopenAt {
		b.state = BreakerHalfOpen
	}
	return b.state
}

// RecordFailure notes one lost remote exchange at the given time and
// reports whether this failure opened the breaker (the Closed/HalfOpen
// -> Open transition, for event emission).
func (b *Breaker) RecordFailure(now energy.Seconds) bool {
	b.consecutive++
	switch b.state {
	case BreakerClosed:
		if b.consecutive >= b.Threshold {
			b.trip(now, b.Cooldown)
			return true
		}
	case BreakerHalfOpen:
		// Failed probe: back off harder.
		next := b.curCooldown * 2
		if next > b.MaxCooldown {
			next = b.MaxCooldown
		}
		b.trip(now, next)
		return true
	}
	return false
}

func (b *Breaker) trip(now energy.Seconds, cooldown energy.Seconds) {
	if cooldown <= 0 {
		cooldown = b.Cooldown
	}
	b.state = BreakerOpen
	b.curCooldown = cooldown
	b.reopenAt = now + cooldown
}

// RecordSuccess notes one successful remote exchange and reports
// whether it closed the breaker (the HalfOpen -> Closed transition,
// for event emission).
func (b *Breaker) RecordSuccess() bool {
	b.consecutive = 0
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.curCooldown = 0
		return true
	}
	return false
}
