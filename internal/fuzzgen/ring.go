package fuzzgen

import (
	"fmt"
	"sort"

	"whisper/internal/cluster"
)

// CheckRingAssignment feeds an arbitrary backend set and request keys into
// the cluster's consistent-hash ring and holds its routing contract:
// construction is total (empty and duplicate names collapse, never panic),
// every Order is a complete permutation of the member set, assignment is
// deterministic across calls and agrees with Pick, and removing a member
// only remaps the keys that lived on it (minimal remap — the property that
// makes ejection cheap for the cluster's aggregate cache).
func CheckRingAssignment(data []byte) error {
	s := &src{data: data}
	backends := backendsFromBytes(s)
	ring := cluster.NewRing(backends)

	want := map[string]bool{}
	for _, b := range backends {
		if b != "" {
			want[b] = true
		}
	}
	members := ring.Members()
	if len(members) != len(want) || ring.Len() != len(members) {
		return fmt.Errorf("ring membership wrong: %d members from %d distinct inputs", len(members), len(want))
	}
	if !sort.StringsAreSorted(members) {
		return fmt.Errorf("members not sorted: %q", members)
	}
	for _, m := range members {
		if !want[m] {
			return fmt.Errorf("ring invented member %q", m)
		}
	}

	nKeys := 1 + s.intn(16)
	for i := 0; i < nKeys; i++ {
		key := string(s.take(s.intn(40)))
		order := ring.Order(key)
		if len(members) == 0 {
			if len(order) != 0 {
				return fmt.Errorf("empty ring returned order %q", order)
			}
			if _, ok := ring.Pick(key); ok {
				return fmt.Errorf("empty ring picked a backend for %q", key)
			}
			continue
		}
		if len(order) != len(members) {
			return fmt.Errorf("order for %q has %d entries, want %d", key, len(order), len(members))
		}
		seen := map[string]bool{}
		for _, b := range order {
			if !want[b] {
				return fmt.Errorf("order for %q names unknown backend %q", key, b)
			}
			if seen[b] {
				return fmt.Errorf("order for %q repeats backend %q", key, b)
			}
			seen[b] = true
		}
		again := ring.Order(key)
		for j := range order {
			if order[j] != again[j] {
				return fmt.Errorf("order for %q unstable: %q then %q", key, order, again)
			}
		}
		home, ok := ring.Pick(key)
		if !ok || home != order[0] {
			return fmt.Errorf("Pick(%q) = %q,%v disagrees with Order[0] = %q", key, home, ok, order[0])
		}
	}

	// Minimal remap: drop one member; every key homed elsewhere must keep
	// its home on the smaller ring.
	if len(members) > 1 {
		removed := members[s.intn(len(members))]
		rest := make([]string, 0, len(members)-1)
		for _, m := range members {
			if m != removed {
				rest = append(rest, m)
			}
		}
		smaller := cluster.NewRing(rest)
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("remap-key-%d-%x", i, s.byte())
			before, _ := ring.Pick(key)
			after, _ := smaller.Pick(key)
			if before != removed && before != after {
				return fmt.Errorf("removing %q remapped key %q: %q -> %q", removed, key, before, after)
			}
		}
	}
	return nil
}

// backendsFromBytes derives a backend list from fuzz input: a mix of
// plausible addresses (with likely duplicates), empty strings, and
// arbitrary bytes.
func backendsFromBytes(s *src) []string {
	n := s.intn(12)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch s.intn(4) {
		case 0:
			out = append(out, "")
		case 1, 2:
			out = append(out, fmt.Sprintf("10.0.0.%d:8090", s.intn(8)))
		default:
			out = append(out, string(s.take(s.intn(12))))
		}
	}
	return out
}
