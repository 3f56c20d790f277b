package core

import (
	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
	"greenvm/internal/vm"
)

// ClientConfig carries the required identity of a Client: who it is,
// what it runs, whom it talks to, over what channel, deciding how.
// Fault models, extra sinks and breaker tuning are applied through
// functional options, so call sites name what they change instead of
// threading positional arguments; the remaining knobs (retry budget,
// loss timeout, code-cache budget) are exported Client fields.
type ClientConfig struct {
	// ID identifies the client to the server (the mobile status table
	// and the session layer key on it).
	ID string
	// Prog is the application program, shared with the server.
	Prog *bytecode.Program
	// Server is the remote end: an in-process Server, a pool
	// (MultiRemote), or a TCP RemoteServer.
	Server Remote
	// Channel is the wireless channel process; nil means a fixed
	// best-condition channel.
	Channel radio.Channel
	// Strategy selects the execution/compilation policy (the zero
	// value is StrategyR, matching the Strategy constants).
	Strategy Strategy
	// Seed seeds the client's RNG stream (channel tracking, fault
	// draws).
	Seed uint64
}

// Option tweaks a Client at construction time, after the required
// configuration is applied.
type Option func(*Client)

// New builds a client from the config and applies the options in
// order. The model is the paper's microSPARC-IIep handset; swap fields
// on the returned client for anything an option does not cover.
func New(cfg ClientConfig, opts ...Option) *Client {
	model := energy.MicroSPARCIIep()
	v := vm.New(cfg.Prog, model)
	r := rng.New(cfg.Seed)
	ch := cfg.Channel
	if ch == nil {
		ch = radio.Fixed{Cls: radio.Class4}
	}
	c := &Client{
		ID:              cfg.ID,
		Prog:            cfg.Prog,
		VM:              v,
		Model:           model,
		Link:            radio.NewLink(radio.WCDMA(), ch, v.Acct, r),
		Server:          cfg.Server,
		Strategy:        cfg.Strategy,
		policy:          newPolicy(cfg.Strategy),
		Events:          &Sinks{},
		Stats:           &Stats{},
		Timeout:         0.05,
		MaxRetries:      2,
		RetryBackoff:    0.05,
		Breaker:         NewBreaker(),
		BackendBreakers: true,
		targets:         map[*bytecode.Method]*Target{},
		profiles:        map[*bytecode.Method]*Profile{},
		plans:           map[*bytecode.Method][]*bytecode.Method{},
		inFlight:        map[*bytecode.Method]bool{},
		r:               r,
	}
	c.Events.Attach(c.Stats)
	c.Cache = newCacheManager(c.Events)
	v.Hook = c.hook
	v.Dispatch = vm.DispatchFunc(c.dispatch)
	for _, opt := range opts {
		if opt != nil {
			opt(c)
		}
	}
	return c
}

// WithFaultModel installs a link fault model (an i.i.d. coin, burst
// outages; see internal/radio).
func WithFaultModel(f radio.FaultModel) Option {
	return func(c *Client) { c.Link.Fault = f }
}

// WithSink attaches an additional event sink (metrics, auditor,
// tracer, trace).
func WithSink(s EventSink) Option {
	return func(c *Client) {
		if s != nil {
			c.Events.Attach(s)
		}
	}
}

// WithBreaker gives the client a fresh link circuit breaker with b's
// tuning (threshold, cooldowns, probe size), which the per-backend
// breakers clone in turn; b itself is never shared, so clients built
// from one prototype keep independent state. nil disables all
// breakers.
func WithBreaker(b *Breaker) Option {
	return func(c *Client) {
		c.Breaker = nil
		if b != nil {
			c.Breaker = b.cloneConfig()
		}
	}
}

// WithBackendBreakers toggles per-backend circuit breakers (on by
// default). Off, a pooled client falls back to PR 6 behaviour: one
// link-scoped breaker, so losses on any backend count against the
// whole pool.
func WithBackendBreakers(on bool) Option {
	return func(c *Client) { c.BackendBreakers = on }
}
