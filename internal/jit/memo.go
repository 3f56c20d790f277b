package jit

import (
	"sync"

	"greenvm/internal/bytecode"
	"greenvm/internal/isa"
)

// Compilation is deterministic: the same (method, level) pair always
// yields the same native body and the same Stats, and the energy model
// charges accounts from Stats alone. Experiments therefore recompile
// identical inputs thousands of times — every client in a fleet run,
// every scenario in a figure grid — for bit-identical results. The
// memo below caches those results process-wide.
//
// Two sharing hazards shape the design. isa.Code.Base is mutated by
// VM.InstallCode, so the cached Code is a template: each retrieval
// returns a fresh header sharing the immutable Instrs slice. Stats is
// returned by copy so a caller annotating its own Stats cannot
// corrupt the cache.

type memoKey struct {
	prog  *bytecode.Program
	m     *bytecode.Method
	level Level
}

type memoEntry struct {
	code  *isa.Code // template; Base never assigned
	stats Stats
	err   error
}

var (
	memoMu sync.RWMutex
	memo   = map[memoKey]*memoEntry{}
)

// CompileCached is Compile behind a process-wide (method, level) memo.
// Results are observably identical to Compile: the returned Code is a
// fresh header (Base unset) over the shared instruction slice, and the
// returned Stats is a private copy. Errors are cached too — a method
// that fails to compile fails identically on retry. Safe for
// concurrent use.
func CompileCached(prog *bytecode.Program, m *bytecode.Method, level Level) (*isa.Code, *Stats, error) {
	key := memoKey{prog: prog, m: m, level: level}
	memoMu.RLock()
	e := memo[key]
	memoMu.RUnlock()
	if e == nil {
		code, stats, err := Compile(prog, m, level)
		e = &memoEntry{code: code, err: err}
		if stats != nil {
			e.stats = *stats
		}
		memoMu.Lock()
		// Keep the first entry on a race; results are identical anyway.
		if prev := memo[key]; prev != nil {
			e = prev
		} else {
			memo[key] = e
		}
		memoMu.Unlock()
	}
	if e.err != nil {
		return nil, nil, e.err
	}
	code := *e.code
	stats := e.stats
	return &code, &stats, nil
}
