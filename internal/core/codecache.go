package core

import (
	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
)

// CacheManager owns the client's compiled-code state. The paper notes
// that compilation "requires additional memory footprint for storing
// the compiled code" and that "mobile systems with larger memories
// are beginning to emerge that make such tradeoffs useful".
//
// Two lifetimes are tracked separately: bodies caches compiled
// artifacts for the whole client lifetime (the simulator never
// re-runs the JIT for a body it has seen), while linked marks which
// bodies are linked into the *current application execution* (a fresh
// execution reloads classes, so compilation energy is paid again even
// though the artifact is reused). MaxBytes bounds the native code
// linked at once (0 = unlimited); exceeding it evicts the
// least-recently-used body, whose next use must pay compilation (or
// download) again.
type CacheManager struct {
	// MaxBytes bounds the native code kept linked at once
	// (0 = unlimited).
	MaxBytes int

	bodies map[*bytecode.Method][jit.NumLevels]*isa.Code
	linked map[*bytecode.Method][jit.NumLevels]bool
	// deltas replays the recorded compile charges on re-compilation.
	deltas map[*bytecode.Method][jit.NumLevels]energy.Delta

	lruStamp map[cacheKey]uint64
	lruTick  uint64

	events *Sinks
}

type cacheKey struct {
	m  *bytecode.Method
	lv jit.Level
}

// newCacheManager returns an empty cache emitting eviction events to
// the sinks.
func newCacheManager(events *Sinks) *CacheManager {
	return &CacheManager{
		bodies:   map[*bytecode.Method][jit.NumLevels]*isa.Code{},
		linked:   map[*bytecode.Method][jit.NumLevels]bool{},
		deltas:   map[*bytecode.Method][jit.NumLevels]energy.Delta{},
		lruStamp: map[cacheKey]uint64{},
		events:   events,
	}
}

// body returns the cached compiled artifact of m at the level, or nil.
func (cm *CacheManager) body(m *bytecode.Method, lv jit.Level) *isa.Code {
	return cm.bodies[m][lv-1]
}

// install stores a compiled artifact for the client's lifetime.
func (cm *CacheManager) install(m *bytecode.Method, lv jit.Level, code *isa.Code) {
	b := cm.bodies[m]
	b[lv-1] = code
	cm.bodies[m] = b
}

// isLinked reports whether m's body is linked into the current
// execution at the level.
func (cm *CacheManager) isLinked(m *bytecode.Method, lv jit.Level) bool {
	return cm.linked[m][lv-1]
}

// delta returns the recorded compile charge of m at the level.
func (cm *CacheManager) delta(m *bytecode.Method, lv jit.Level) (energy.Delta, bool) {
	if cm.bodies[m][lv-1] == nil {
		return energy.Delta{}, false
	}
	return cm.deltas[m][lv-1], true
}

// recordDelta stores the compile charge to replay on re-compilation.
func (cm *CacheManager) recordDelta(m *bytecode.Method, lv jit.Level, d energy.Delta) {
	ds := cm.deltas[m]
	ds[lv-1] = d
	cm.deltas[m] = ds
}

// link marks m's body linked at the level, evicting LRU bodies if the
// cache is over budget.
func (cm *CacheManager) link(m *bytecode.Method, lv jit.Level) {
	av := cm.linked[m]
	av[lv-1] = true
	cm.linked[m] = av

	key := cacheKey{m, lv}
	cm.lruTick++
	cm.lruStamp[key] = cm.lruTick
	if cm.MaxBytes <= 0 {
		return
	}
	for cm.linkedBytes() > cm.MaxBytes {
		victim, ok := cm.oldestLinked(key)
		if !ok {
			return // only the newcomer is linked; nothing to evict
		}
		vav := cm.linked[victim.m]
		vav[victim.lv-1] = false
		cm.linked[victim.m] = vav
		delete(cm.lruStamp, victim)
		cm.events.Emit(Event{Kind: EvEvict, Method: victim.m, Level: victim.lv})
	}
}

// unlinkAll drops every link (an application-execution boundary: the
// fresh classloader has no native code). Cached artifacts and their
// recorded compile charges survive.
func (cm *CacheManager) unlinkAll() {
	cm.linked = map[*bytecode.Method][jit.NumLevels]bool{}
	cm.lruStamp = map[cacheKey]uint64{}
}

// linkedBytes sums the sizes of currently linked bodies.
func (cm *CacheManager) linkedBytes() int {
	total := 0
	for mm, av := range cm.linked {
		for lv := 0; lv < jit.NumLevels; lv++ {
			if av[lv] && cm.bodies[mm][lv] != nil {
				total += cm.bodies[mm][lv].SizeBytes()
			}
		}
	}
	return total
}

// oldestLinked returns the least-recently-linked body other than keep.
func (cm *CacheManager) oldestLinked(keep cacheKey) (cacheKey, bool) {
	var victim cacheKey
	var best uint64
	found := false
	for mm, av := range cm.linked {
		for lv := 0; lv < jit.NumLevels; lv++ {
			if !av[lv] {
				continue
			}
			k := cacheKey{mm, jit.Level(lv + 1)}
			if k == keep {
				continue
			}
			stamp := cm.lruStamp[k]
			if !found || stamp < best {
				victim, best, found = k, stamp, true
			}
		}
	}
	return victim, found
}
