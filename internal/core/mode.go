// Package core implements the paper's contribution: the energy-aware
// offloading framework that decides, per invocation of each
// "potential method", where to execute it (locally or on the server)
// and how (interpreted, or JIT-compiled at one of three optimization
// levels), and — in the AA strategy — where to compile (locally, or by
// downloading the pre-compiled body from the server).
package core

import (
	"fmt"

	"greenvm/internal/jit"
)

// Mode is one way of executing a potential method.
type Mode int

// Execution modes. The first four are local; ModeRemote offloads to
// the server.
const (
	ModeInterp Mode = iota
	ModeL1
	ModeL2
	ModeL3
	ModeRemote

	// NumModes counts the execution modes; every array indexed by Mode
	// (mode counters, per-mode estimators) is sized with it.
	NumModes = int(ModeRemote) + 1

	numLocalModes = NumModes - 1
)

// String names the mode as in the paper.
func (m Mode) String() string {
	switch m {
	case ModeInterp:
		return "I"
	case ModeL1:
		return "L1"
	case ModeL2:
		return "L2"
	case ModeL3:
		return "L3"
	case ModeRemote:
		return "R"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Level returns the JIT level of a compiled local mode (ModeL1..L3).
func (m Mode) Level() jit.Level {
	switch m {
	case ModeL1:
		return jit.Level1
	case ModeL2:
		return jit.Level2
	case ModeL3:
		return jit.Level3
	default:
		panic(fmt.Sprintf("core: mode %v has no JIT level", m))
	}
}

// IsCompiled reports whether the mode runs native code locally.
func (m Mode) IsCompiled() bool { return m >= ModeL1 && m <= ModeL3 }

// Strategy selects how execution decisions are made.
type Strategy int

// The seven strategies of Fig 5: five static, two adaptive.
const (
	StrategyR Strategy = iota // all potential methods remote
	StrategyI                 // interpret everything locally
	StrategyL1
	StrategyL2
	StrategyL3
	StrategyAL // adaptive execution, local compilation
	StrategyAA // adaptive execution, adaptive compilation
)

// Strategies lists all seven in the paper's order.
var Strategies = []Strategy{StrategyR, StrategyI, StrategyL1, StrategyL2, StrategyL3, StrategyAL, StrategyAA}

// String names the strategy as in the paper.
func (s Strategy) String() string {
	switch s {
	case StrategyR:
		return "R"
	case StrategyI:
		return "I"
	case StrategyL1:
		return "L1"
	case StrategyL2:
		return "L2"
	case StrategyL3:
		return "L3"
	case StrategyAL:
		return "AL"
	case StrategyAA:
		return "AA"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// StaticMode returns the fixed mode of a static strategy.
func (s Strategy) StaticMode() Mode {
	switch s {
	case StrategyR:
		return ModeRemote
	case StrategyI:
		return ModeInterp
	case StrategyL1:
		return ModeL1
	case StrategyL2:
		return ModeL2
	case StrategyL3:
		return ModeL3
	default:
		panic(fmt.Sprintf("core: %v is not static", s))
	}
}
