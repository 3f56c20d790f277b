package fleet

import (
	"fmt"
	"strings"

	"greenvm/internal/core"
	"greenvm/internal/energy"
)

// Backend chaos injection: FailAt models a single hard crash; real
// pools degrade in messier ways. BackendChaos composes three more
// fault shapes per backend, all scheduled and judged inside the
// engine's event heap so fleet runs stay byte-identical under any
// concurrency:
//
//   - flapping: crash/restart cycles — the backend goes down, flushes
//     its queue with attributed connection losses, recovers, and
//     crashes again on a fixed period;
//   - brown-out: a degraded service rate — admitted requests take
//     BrownoutFactor times longer during the window, so queues back up
//     and admission sheds without any breaker-visible loss;
//   - per-backend Gilbert–Elliott loss: exchanges placed on the
//     backend are lost in bursts (internal/radio's two-state chain),
//     attributed to the backend so per-backend breakers can isolate
//     it.
type BackendChaos struct {
	// FailAt > 0 takes the backend down permanently at that virtual
	// time (PR 6's hard failure). Ignored when FlapAt is set — a flap
	// schedule supersedes the single crash.
	FailAt energy.Seconds

	// FlapAt > 0 schedules crash/restart cycles: the backend crashes
	// at FlapAt, stays down FlapDown, and crashes again every
	// FlapEvery. FlapDown defaults to half of FlapEvery and is clamped
	// below it; FlapEvery <= 0 means a single crash + restart.
	FlapAt    energy.Seconds
	FlapDown  energy.Seconds
	FlapEvery energy.Seconds

	// BrownoutFactor > 1 multiplies the backend's service time from
	// BrownoutAt for BrownoutFor (<= 0 = until the run ends).
	BrownoutAt     energy.Seconds
	BrownoutFor    energy.Seconds
	BrownoutFactor float64

	// LossRate > 0 attaches a Gilbert–Elliott loss process to the
	// backend: each exchange placed on it while the chain is in its bad
	// state is lost (attributed to the backend). LossBurst is the mean
	// burst length (defaults to 3); LossSeed seeds the chain's RNG
	// stream (0 derives one from the backend index).
	LossRate  float64
	LossBurst float64
	LossSeed  uint64
}

// validate rejects fault shapes the backend's loss chain cannot take.
func (c BackendChaos) validate() error {
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("loss rate %g must be in [0, 1)", c.LossRate)
	}
	return nil
}

// normalized applies the defaulting rules; idx is the backend index
// (the default loss-seed salt).
func (c BackendChaos) normalized(idx int) BackendChaos {
	if c.FlapAt > 0 {
		c.FailAt = 0
		if c.FlapEvery < 0 {
			c.FlapEvery = 0
		}
		if c.FlapDown <= 0 {
			if c.FlapEvery > 0 {
				c.FlapDown = c.FlapEvery / 2
			} else {
				c.FlapDown = c.FlapAt
			}
		}
		if c.FlapEvery > 0 && c.FlapDown >= c.FlapEvery {
			c.FlapDown = c.FlapEvery / 2
		}
	}
	if c.LossRate > 0 {
		if c.LossBurst <= 0 {
			c.LossBurst = 3
		}
		if c.LossSeed == 0 {
			c.LossSeed = mix(0xC4A05, uint64(idx))
		}
	}
	return c
}

// String renders the active fault shapes, for summaries and flag
// echoes.
func (c BackendChaos) String() string {
	var parts []string
	if c.FlapAt > 0 {
		parts = append(parts, fmt.Sprintf("flap@%g/%g/%g", float64(c.FlapAt), float64(c.FlapDown), float64(c.FlapEvery)))
	} else if c.FailAt > 0 {
		parts = append(parts, fmt.Sprintf("fail@%g", float64(c.FailAt)))
	}
	if c.BrownoutFactor > 1 {
		parts = append(parts, fmt.Sprintf("brownout@%g+%gx%g", float64(c.BrownoutAt), float64(c.BrownoutFor), c.BrownoutFactor))
	}
	if c.LossRate > 0 {
		parts = append(parts, fmt.Sprintf("loss:%g/%g", c.LossRate, c.LossBurst))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// BreakerMode selects the resilience scope the fleet's clients run
// with — the comparison axis of the chaos sweep.
type BreakerMode int

const (
	// BreakersBackend gives every client one circuit breaker per
	// backend (the default): losses attributed to a backend blind the
	// client to that backend only.
	BreakersBackend BreakerMode = iota
	// BreakersGlobal is PR 6's shape: one link breaker per client, so
	// losses on any backend count against the whole pool.
	BreakersGlobal
	// BreakersOff disables breakers entirely; every loss pays the full
	// timeout-listen machinery on every invocation.
	BreakersOff
)

// BreakerModes lists every mode, in sweep order.
var BreakerModes = []BreakerMode{BreakersBackend, BreakersGlobal, BreakersOff}

// String names the mode (the -breakers flag value).
func (m BreakerMode) String() string {
	switch m {
	case BreakersBackend:
		return "backend"
	case BreakersGlobal:
		return "global"
	case BreakersOff:
		return "off"
	default:
		return fmt.Sprintf("BreakerMode(%d)", int(m))
	}
}

// ParseBreakerMode parses a -breakers flag value.
func ParseBreakerMode(s string) (BreakerMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "backend", "":
		return BreakersBackend, nil
	case "global":
		return BreakersGlobal, nil
	case "off", "none":
		return BreakersOff, nil
	default:
		return 0, fmt.Errorf("fleet: unknown breaker mode %q (valid: backend, global, off)", s)
	}
}

// sweepShapes are the canonical single-backend fault shapes the chaos
// sweep injects on backend s0: a brown-out (×8 service time with a
// composed loss burst process — a browned-out backend both slows and
// drops), a flapping crash/restart cycle, and a pure Gilbert–Elliott
// loss process. Times are virtual seconds, scaled so every shape
// overlaps runs from a few milliseconds up.
var sweepShapes = []struct {
	name  string
	chaos BackendChaos
}{
	{"brownout", BackendChaos{BrownoutAt: 0.0005, BrownoutFactor: 8, LossRate: 0.5, LossBurst: 8}},
	{"flap", BackendChaos{FlapAt: 0.001, FlapDown: 0.002, FlapEvery: 0.004}},
	{"loss", BackendChaos{LossRate: 0.35, LossBurst: 4}},
}

// SweepChaos runs the chaos sweep on base: every canonical fault shape
// on backend s0, crossed with every placement policy and every breaker
// mode, in that nesting order. Each run overrides base's Chaos,
// Placement, Breakers and Breaker, and row receives its result. Every
// client runs with the sweep's breaker prototype: two consecutive
// attributed losses open a breaker, and the cooldown is long relative
// to the inter-invocation gap (tenths of a virtual second vs.
// milliseconds), so an open breaker actually shapes the following
// decisions instead of silently healing between them. The sweep stops
// at the first failed client and returns its error.
func SweepChaos(base Spec, row func(fault string, pl Placement, mode BreakerMode, res *Result)) error {
	for _, shape := range sweepShapes {
		for _, pl := range Placements {
			for _, mode := range BreakerModes {
				spec := base
				spec.Chaos = make([]BackendChaos, max(base.Servers, 1))
				spec.Chaos[0] = shape.chaos
				spec.Placement = pl
				spec.Breakers = mode
				spec.Breaker = &core.Breaker{Threshold: 2, Cooldown: 0.05, MaxCooldown: 0.4, ProbeBytes: 16}
				var failed *ClientResult
				spec.ResultSink = func(cr ClientResult) {
					if cr.Err != "" && failed == nil {
						failed = &cr
					}
					if base.ResultSink != nil {
						base.ResultSink(cr)
					}
				}
				res, err := Run(spec)
				if err != nil {
					return err
				}
				if failed != nil {
					return fmt.Errorf("fleet: %s/%s/%s: client %s: %s (%d of %d clients failed)",
						shape.name, pl, mode, failed.ID, failed.Err, res.Totals.Errors, res.Totals.Clients)
				}
				row(shape.name, pl, mode, res)
			}
		}
	}
	return nil
}
