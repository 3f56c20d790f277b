// Package mem simulates the memory hierarchy of the paper's mobile
// client: an on-chip 16 KB direct-mapped instruction cache, an 8 KB
// direct-mapped data cache, and an off-chip 32 MB DRAM module. Cache
// hits are free (their energy is folded into the Fig 1 per-instruction
// values, which were measured with on-chip caches present); misses
// transfer a full line from DRAM, charging the Fig 1 main-memory energy
// per word and stalling the pipeline.
package mem

import (
	"fmt"

	"greenvm/internal/energy"
)

// CacheConfig describes a direct-mapped cache.
type CacheConfig struct {
	// SizeBytes is the total capacity. Must be a power of two.
	SizeBytes int
	// LineBytes is the line size. Must be a power of two.
	LineBytes int
}

// Lines returns the number of lines in the cache.
func (c CacheConfig) Lines() int { return c.SizeBytes / c.LineBytes }

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Cache is a direct-mapped cache with valid/tag state and hit/miss
// counters. It models placement only; data contents live in the VM.
// Each entry stores line+1 (0 = invalid) so a lookup touches a single
// word — this sits on the simulator's hottest path.
type Cache struct {
	cfg       CacheConfig
	lineShift uint
	indexMask uint64
	lines     []uint64

	// lastLine is the most recently accessed line. It is resident by
	// construction — every access either hits it or installs it — so a
	// single compare short-circuits the array lookup for the highly
	// repetitive line-local traffic simulators generate (operand
	// stacks, straight-line fetch). noLine after Flush.
	lastLine uint64

	// gen counts installs (and flushes). A line proven resident at
	// generation g is still resident while gen == g: installs are the
	// only writes to the placement array. LineTrackers rely on this to
	// prove hits without touching the array. Starts at 1 so a
	// zero-valued tracker can never validate.
	gen uint64

	Hits   uint64
	Misses uint64
}

// LineTracker caches residency of a single line for one traffic
// source (an operand stack, a spill frame, a bytecode stream, an
// array being walked). Distinct sources interleave in the simulated
// loops, so the cache-global lastLine ping-pongs; a per-source tracker
// keeps its locality. The zero value is empty.
type LineTracker struct {
	line uint64
	gen  uint64
}

// noLine is a sentinel no real address maps to (lines are addr>>shift,
// so the top bits are always zero).
const noLine = ^uint64(0)

// NewCache returns an empty cache. It panics if the configuration is
// not a power-of-two geometry, which indicates a programming error in
// the platform definition rather than a runtime condition.
func NewCache(cfg CacheConfig) *Cache {
	if !isPow2(cfg.SizeBytes) || !isPow2(cfg.LineBytes) || cfg.LineBytes > cfg.SizeBytes {
		panic(fmt.Sprintf("mem: invalid cache geometry %+v", cfg))
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	n := cfg.Lines()
	return &Cache{
		cfg:       cfg,
		lineShift: shift,
		indexMask: uint64(n - 1),
		lines:     make([]uint64, n),
		lastLine:  noLine,
		gen:       1,
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Access looks up addr, updating the cache state, and reports whether
// it hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	if line == c.lastLine {
		c.Hits++
		return true
	}
	idx := line & c.indexMask
	if c.lines[idx] == line+1 {
		c.lastLine = line
		c.Hits++
		return true
	}
	c.lines[idx] = line + 1
	c.lastLine = line
	c.gen++
	c.Misses++
	return false
}

// AddHits credits n hits without a lookup. Execution loops use it to
// batch accesses they can prove resident (e.g. straight-line
// instruction fetches from the line the previous fetch installed).
func (c *Cache) AddHits(n uint64) { c.Hits += n }

// Flush invalidates every line. Used between independent simulations.
func (c *Cache) Flush() {
	clear(c.lines)
	c.lastLine = noLine
	c.gen++
}

// MissRate returns misses / accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}

// Hierarchy bundles the client's I-cache, D-cache and DRAM cost model
// and charges an energy.Account for the traffic it sees.
type Hierarchy struct {
	ICache *Cache
	DCache *Cache
	model  *energy.CPUModel
	acct   *energy.Account
}

// DefaultClientHierarchy returns the paper's client memory system:
// 16 KB I-cache and 8 KB D-cache, direct-mapped, 32-byte lines.
func DefaultClientHierarchy(model *energy.CPUModel, acct *energy.Account) *Hierarchy {
	return &Hierarchy{
		ICache: NewCache(CacheConfig{SizeBytes: 16 * 1024, LineBytes: 32}),
		DCache: NewCache(CacheConfig{SizeBytes: 8 * 1024, LineBytes: 32}),
		model:  model,
		acct:   acct,
	}
}

// Account returns the account currently being charged.
func (h *Hierarchy) Account() *energy.Account { return h.acct }

func (h *Hierarchy) miss() {
	h.acct.AddMemAccess(uint64(h.model.CacheLineWords))
	h.acct.AddStallCycles(uint64(h.model.MissPenaltyCycles))
}

// FetchInstr models an instruction fetch at addr.
func (h *Hierarchy) FetchInstr(addr uint64) {
	if !h.ICache.Access(addr) {
		h.miss()
	}
}

// Data models a data access of n consecutive 32-bit words at addr.
func (h *Hierarchy) Data(addr uint64, words int) {
	for i := 0; i < words; i++ {
		if !h.DCache.Access(addr + uint64(4*i)) {
			h.miss()
		}
	}
}

// Data1 models a single-word data access at addr; it is Data(addr, 1)
// without the loop, for the interpreter's per-bytecode traffic.
func (h *Hierarchy) Data1(addr uint64) {
	if !h.DCache.Access(addr) {
		h.miss()
	}
}

// TrackedHit reports (and counts) a hit proven by the tracker: addr
// lies on the tracked line and no install has happened since the
// tracker last validated, so the line is still resident. On false the
// caller must perform the access normally and then Note it. Small
// enough to inline into execution loops — the proven-hit path is two
// compares and an increment, with no placement-array traffic.
func (c *Cache) TrackedHit(addr uint64, t *LineTracker) bool {
	if addr>>c.lineShift == t.line && c.gen == t.gen {
		c.Hits++
		return true
	}
	return false
}

// Note records that addr was just accessed against c (so its line is
// resident) and revalidates the tracker.
func (t *LineTracker) Note(c *Cache, addr uint64) {
	t.line = addr >> c.lineShift
	t.gen = c.gen
}

// Data1T is Data1 with a per-source residency proof via t: counters
// and energy charges are identical to Data1 for every access, but a
// proven hit skips the placement lookup. Execution loops hold one
// tracker per traffic source, which keeps the fast path effective
// even when sources interleave.
func (h *Hierarchy) Data1T(addr uint64, t *LineTracker) {
	if h.DCache.TrackedHit(addr, t) {
		return
	}
	h.Data1(addr)
	t.Note(h.DCache, addr)
}

// Flush invalidates both caches.
func (h *Hierarchy) Flush() {
	h.ICache.Flush()
	h.DCache.Flush()
}
