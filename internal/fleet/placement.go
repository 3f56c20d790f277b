package fleet

import (
	"fmt"
	"sort"
	"strings"
)

// Placement selects how the pool maps an arriving request to a
// backend. Every policy is deterministic in (client ID, per-client
// request sequence, current virtual admission state) — never in
// goroutine timing — so fleet runs stay byte-identical under any
// concurrency setting.
type Placement int

const (
	// PlaceCheapest honours the client's pick-cheapest hint: the
	// client prices each backend (base offload cost inflated by its
	// per-backend busy EWMA) and asks for the least busy, which is the
	// cheapest. The pool only overrides a hint that points at a down
	// backend, failing over circularly to the next live one.
	PlaceCheapest Placement = iota
	// PlaceHash pins each client to a backend by consistent hashing
	// over its ID (session affinity: one backend holds the client's
	// whole serialization-cache history). Down backends are skipped
	// clockwise around the ring.
	PlaceHash
	// PlaceP2C is power-of-two-choices: two backends are drawn
	// pseudo-randomly (from the client ID and its request sequence —
	// deterministic) and the one with the smaller queue-depth-plus-
	// running load wins, ties to the lower index. The load is read
	// from the engine's own virtual-time state of each backend.
	PlaceP2C
)

// Placements lists every policy, in sweep order.
var Placements = []Placement{PlaceCheapest, PlaceHash, PlaceP2C}

// String names the placement (the -placement flag value).
func (p Placement) String() string {
	switch p {
	case PlaceCheapest:
		return "cheapest"
	case PlaceHash:
		return "hash"
	case PlaceP2C:
		return "p2c"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// ParsePlacement parses a -placement flag value. An unknown value
// fails fast with the valid names — and a "did you mean" suggestion
// when it looks like a typo of one — instead of surfacing late from
// the pool.
func ParsePlacement(s string) (Placement, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "cheapest", "":
		return PlaceCheapest, nil
	case "hash":
		return PlaceHash, nil
	case "p2c":
		return PlaceP2C, nil
	default:
		names := make([]string, len(Placements))
		for i, p := range Placements {
			names[i] = p.String()
		}
		valid := strings.Join(names, ", ")
		if sug := closestName(strings.ToLower(strings.TrimSpace(s)), names); sug != "" {
			return 0, fmt.Errorf("fleet: unknown placement %q — did you mean %q? (valid: %s)", s, sug, valid)
		}
		return 0, fmt.Errorf("fleet: unknown placement %q (valid: %s)", s, valid)
	}
}

// closestName returns the candidate within edit distance 2 of s (the
// typo radius), "" when none is close enough; ties go to the earlier
// candidate.
func closestName(s string, candidates []string) string {
	best, bestD := "", 3
	for _, c := range candidates {
		if d := editDistance(s, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two short flag
// values.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// strHash is FNV-1a — the stable string hash placement decisions key
// on.
func strHash(s string) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ringVNodes is how many points each backend contributes to the
// consistent-hash ring; enough to spread a small pool evenly.
const ringVNodes = 16

type ringPoint struct {
	point   uint64
	backend int
}

// buildRing lays the backends out on the consistent-hash ring.
func buildRing(ids []string) []ringPoint {
	ring := make([]ringPoint, 0, len(ids)*ringVNodes)
	for i, id := range ids {
		for v := 0; v < ringVNodes; v++ {
			ring = append(ring, ringPoint{point: mix(strHash(id), uint64(v)), backend: i})
		}
	}
	sort.Slice(ring, func(a, b int) bool {
		if ring[a].point != ring[b].point {
			return ring[a].point < ring[b].point
		}
		return ring[a].backend < ring[b].backend
	})
	return ring
}

// pickBackend maps one arriving request to a backend index, or -1
// when every backend is down. Callers hold the engine lock.
func (e *engine) pickBackend(r *request) int {
	switch e.placement {
	case PlaceHash:
		return e.pickHash(r)
	case PlaceP2C:
		return e.pickP2C(r)
	default:
		return e.pickHint(r)
	}
}

// pickHint honours the client's pick-cheapest hint, failing over
// circularly past down backends (and falling back to the client's
// home backend when the hint names nothing).
func (e *engine) pickHint(r *request) int {
	n := len(e.pool.backends)
	start, ok := e.byID[r.hint]
	if !ok {
		start = int(strHash(r.clientID) % uint64(n))
	}
	return e.firstUp(start)
}

// pickHash walks the consistent-hash ring clockwise from the client's
// point to the first live backend. The FNV hash is finalized through
// mix: similar short IDs ("pda-00", "pda-01", ...) cluster in FNV's
// high bits, and the ring comparison is on the full 64-bit value.
func (e *engine) pickHash(r *request) int {
	h := mix(strHash(r.clientID), 0)
	i := sort.Search(len(e.ring), func(i int) bool { return e.ring[i].point >= h })
	for off := 0; off < len(e.ring); off++ {
		p := e.ring[(i+off)%len(e.ring)]
		if !e.pool.backends[p.backend].down {
			return p.backend
		}
	}
	return -1
}

// pickP2C draws two backends from the client's ID and request
// sequence and takes the one with the smaller load (queued plus
// running), ties to the lower index.
func (e *engine) pickP2C(r *request) int {
	n := len(e.pool.backends)
	h := mix(strHash(r.clientID), uint64(r.seq))
	a := int(h % uint64(n))
	b := int((h >> 32) % uint64(n))
	if b == a {
		b = (a + 1) % n
	}
	ba, bb := e.pool.backends[a], e.pool.backends[b]
	switch {
	case ba.down && bb.down:
		return e.firstUp(a)
	case ba.down:
		return b
	case bb.down:
		return a
	}
	la := ba.busy + len(ba.queue)
	lb := bb.busy + len(bb.queue)
	if lb < la || (lb == la && b < a) {
		return b
	}
	return a
}

// firstUp scans circularly from start for a live backend, -1 when all
// are down.
func (e *engine) firstUp(start int) int {
	n := len(e.pool.backends)
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if !e.pool.backends[i].down {
			return i
		}
	}
	return -1
}
