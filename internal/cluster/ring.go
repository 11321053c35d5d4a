// Package cluster is the horizontal-scaling tier over the serving path: a
// gateway (cmd/whispergate) that spreads canonical experiment requests
// across a pool of whisperd backends while preserving the cache locality
// the single-node daemon earns.
//
// Three ideas carry the design:
//
//   - Routing is by content, not by connection: every request already has a
//     stable whisper-req-v1 hash, and the consistent-hash ring maps that
//     hash to a backend, so repeat requests land where the LRU/disk cache
//     already holds them. The cluster's aggregate cache behaves like one
//     big cache. Bounded load moves a backend behind its ring successors
//     while it is overloaded, or while its cache hits run over 10× slower
//     than its peers' (and over 5 ms): a slow replica is alive and correct,
//     so its keys are served by their successors and re-measured on it
//     about once per probe interval, never ejected.
//   - Each backend has one health state machine (healthy → suspect →
//     ejected, plus draining) driven by one consecutive-failure count that
//     /readyz probes and forwarded requests both feed. EjectAfter failures
//     in a row eject a backend; only a passing probe, on an exponential
//     backoff schedule, brings it back; a draining backend stops getting
//     work before it starts refusing it.
//   - Failover is safe because execution is deterministic: /v1/run is
//     idempotent by the serving contract (equal hashes denote equal bytes),
//     so the gateway retries a failed attempt on the next replica and the
//     answer's bytes are the bytes, whoever computed them. A request that
//     does not fail runs once, on its home backend, whose cache it fills.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringVnodes is the number of virtual points each backend contributes.
// 128 keeps the per-backend share within ~±25% of fair at realistic pool
// sizes (the balance test pins this) while the whole ring for 16 backends
// stays ~2k points — binary-search lookup noise.
const ringVnodes = 128

// Ring is an immutable consistent-hash ring over backend names. Assignment
// is a pure function of (member set, key): no clock, no RNG, no connection
// state — the golden-mapping test pins it, and the fuzz target holds it
// total and panic-free on arbitrary inputs.
type Ring struct {
	members []string // sorted, deduplicated
	points  []ringPoint
}

type ringPoint struct {
	hash    uint64
	backend uint32 // index into members
}

// NewRing builds a ring over backends. Empty names are dropped and
// duplicates collapse, so the ring is well-defined on any input list (the
// fuzz target feeds it adversarial ones).
func NewRing(backends []string) *Ring {
	seen := make(map[string]bool, len(backends))
	members := make([]string, 0, len(backends))
	for _, b := range backends {
		if b == "" || seen[b] {
			continue
		}
		seen[b] = true
		members = append(members, b)
	}
	sort.Strings(members)
	r := &Ring{members: members, points: make([]ringPoint, 0, len(members)*ringVnodes)}
	for i, m := range members {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    ringHash(m + "#" + strconv.Itoa(v)),
				backend: uint32(i),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Colliding points tie-break by member order so the sort — and
		// therefore every Order walk — is deterministic.
		return r.points[i].backend < r.points[j].backend
	})
	return r
}

// ringHash is FNV-64a with a murmur3-style finalizer. Raw FNV clusters
// inputs that share a prefix and differ late (exactly what sequential
// request hashes and "backend#vnode" labels look like), which skews arc
// sizes badly; the avalanche pass spreads them uniformly around the ring.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Members returns the ring's distinct backends, sorted.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Len is the number of distinct backends on the ring.
func (r *Ring) Len() int { return len(r.members) }

// Order returns every member in preference order for key: the clockwise
// walk from the key's point, keeping first occurrences. Order[0] is the
// key's home backend; Order[1:] is the failover sequence. Skipping a dead
// Order[0] and taking Order[1] is exactly the minimal-remap behaviour —
// keys whose home is alive never move.
func (r *Ring) Order(key string) []string {
	if len(r.members) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.members))
	taken := make([]bool, len(r.members))
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for n := 0; n < len(r.points) && len(out) < len(r.members); n++ {
		p := r.points[(start+n)%len(r.points)]
		if !taken[p.backend] {
			taken[p.backend] = true
			out = append(out, r.members[p.backend])
		}
	}
	return out
}

// Pick returns the key's home backend, or false on an empty ring.
func (r *Ring) Pick(key string) (string, bool) {
	if len(r.members) == 0 {
		return "", false
	}
	if len(r.members) == 1 {
		return r.members[0], true
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.members[r.points[i%len(r.points)].backend], true
}
