package mem

import (
	"testing"
	"testing/quick"

	"greenvm/internal/energy"
)

func TestCacheGeometry(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 8 * 1024, LineBytes: 32})
	if got := c.Config().Lines(); got != 256 {
		t.Errorf("Lines() = %d, want 256", got)
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two cache size")
		}
	}()
	NewCache(CacheConfig{SizeBytes: 3000, LineBytes: 32})
}

func TestCacheHitMissSequence(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 128, LineBytes: 32}) // 4 lines
	if c.Access(0) {
		t.Error("first access should miss")
	}
	if !c.Access(4) {
		t.Error("same-line access should hit")
	}
	if !c.Access(31) {
		t.Error("end of line should hit")
	}
	if c.Access(32) {
		t.Error("next line should miss")
	}
	// Address 128 maps to the same index as 0 in a 4-line cache.
	if c.Access(128) {
		t.Error("conflicting line should miss")
	}
	if c.Access(0) {
		t.Error("evicted line should miss")
	}
	if c.Hits != 2 || c.Misses != 4 {
		t.Errorf("hits/misses = %d/%d, want 2/4", c.Hits, c.Misses)
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 128, LineBytes: 32})
	c.Access(0)
	c.Flush()
	if c.Access(0) {
		t.Error("access after flush should miss")
	}
}

func TestMissRate(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 128, LineBytes: 32})
	if c.MissRate() != 0 {
		t.Error("empty cache should report miss rate 0")
	}
	c.Access(0)
	c.Access(0)
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("MissRate = %g, want 0.5", got)
	}
}

// Property: a second access to the same address always hits, no matter
// the preceding address (direct-mapped with no other interference).
func TestRepeatAccessHitsProperty(t *testing.T) {
	f := func(addr uint32) bool {
		c := NewCache(CacheConfig{SizeBytes: 8 * 1024, LineBytes: 32})
		c.Access(uint64(addr))
		return c.Access(uint64(addr))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHierarchyChargesMisses(t *testing.T) {
	model := energy.MicroSPARCIIep()
	acct := energy.NewAccount(model)
	h := DefaultClientHierarchy(model, acct)

	h.FetchInstr(CodeBase) // miss: one line transfer + stall
	if got := acct.MemAccesses(); got != uint64(model.CacheLineWords) {
		t.Errorf("mem accesses after one miss = %d, want %d", got, model.CacheLineWords)
	}
	if got := acct.Cycles; got != uint64(model.MissPenaltyCycles) {
		t.Errorf("stall cycles = %d, want %d", got, model.MissPenaltyCycles)
	}
	h.FetchInstr(CodeBase + 4) // hit: no new charges
	if got := acct.MemAccesses(); got != uint64(model.CacheLineWords) {
		t.Errorf("hit should not charge memory, accesses = %d", got)
	}

	before := acct.MemAccesses()
	h.Data(HeapBase, 2) // two words in one fresh line: one miss
	if got := acct.MemAccesses() - before; got != uint64(model.CacheLineWords) {
		t.Errorf("2-word access charged %d words, want one line (%d)", got, model.CacheLineWords)
	}
}

func TestAllocator(t *testing.T) {
	a := NewAllocator(0x1000, 0x100)
	p1 := a.Alloc(10, 8)
	p2 := a.Alloc(10, 8)
	if p1 != 0x1000 {
		t.Errorf("first alloc at %#x, want 0x1000", p1)
	}
	if p2 != 0x1010 {
		t.Errorf("second alloc at %#x, want aligned 0x1010", p2)
	}
	if a.Used() == 0 {
		t.Error("Used should be non-zero")
	}
	// Exhaustion wraps instead of failing.
	p3 := a.Alloc(0x200, 8)
	if p3 != 0x1000 {
		t.Errorf("wrapped alloc at %#x, want 0x1000", p3)
	}
	a.Reset()
	if a.Used() != 0 {
		t.Error("Reset should zero usage")
	}
}

// TestTrackedAccessEquivalence drives two identical caches with the
// same pseudo-random access sequence — one through plain Access, one
// through the TrackedHit/Note fast path with several interleaved
// trackers (as the execution loops use them) — and requires identical
// hit/miss counters and placement state afterwards. This is the
// correctness contract of the tracked fast path: proven hits are real
// hits, and everything else falls back to the ordinary access.
func TestTrackedAccessEquivalence(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 1024, LineBytes: 32}
	plain := NewCache(cfg)
	tracked := NewCache(cfg)
	trackers := make([]LineTracker, 3)

	// xorshift so the walk mixes line-local runs (stack-like), strides
	// (array-like) and far jumps (aliasing installs).
	seed := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	addr := uint64(0x4000)
	for i := 0; i < 20000; i++ {
		switch rnd() % 8 {
		case 0: // far jump, likely conflict-miss
			addr = 0x4000 + rnd()%(1<<16)
		case 1: // stride
			addr += 32 * (rnd() % 4)
		default: // line-local wiggle
			addr = addr&^31 | rnd()%32
		}
		plain.Access(addr)
		tr := &trackers[rnd()%3]
		if !tracked.TrackedHit(addr, tr) {
			tracked.Access(addr)
			tr.Note(tracked, addr)
		}
		if rnd()%512 == 0 {
			plain.Flush()
			tracked.Flush()
		}
	}
	if plain.Hits != tracked.Hits || plain.Misses != tracked.Misses {
		t.Fatalf("diverged: plain %d/%d, tracked %d/%d hits/misses",
			plain.Hits, plain.Misses, tracked.Hits, tracked.Misses)
	}
	for i := range plain.lines {
		if plain.lines[i] != tracked.lines[i] {
			t.Fatalf("placement state diverged at line %d", i)
		}
	}
}
