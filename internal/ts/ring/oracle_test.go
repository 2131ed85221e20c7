package ring

import (
	"fmt"
	"sort"
	"sync"
)

// Ring is PlanChange's brute-force oracle: a consistent-hash ring mapping
// keys to group names one at a time, against which
// TestPlanChangeMatchesRingOwnership checks the exact arc accounting. It
// places virtual nodes with the same vnodeHash PlanChange uses. It is safe
// for concurrent use; Get is lock-free relative to other Gets (a single
// RWMutex read-lock) and membership changes are copy-free in place.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []point // sorted by hash
	groups map[string]bool
}

// point is one virtual node: a position on the 64-bit hash circle owned
// by a group.
type point struct {
	hash  uint64
	group string
}

// New creates an empty ring with the given number of virtual nodes per
// group (0 = DefaultVirtualNodes).
func New(virtualNodes int) *Ring {
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: virtualNodes, groups: make(map[string]bool)}
}

// hashKey positions arbitrary bytes on the circle.
func hashKey(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return mix64(h)
}

// Add inserts a group's virtual nodes. Adding a present group is a
// no-op.
func (r *Ring) Add(group string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.groups[group] {
		return
	}
	r.groups[group] = true
	fresh := make([]point, r.vnodes)
	for i := range fresh {
		fresh[i] = point{hash: vnodeHash(group, i), group: group}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].hash < fresh[j].hash })
	// Merge instead of re-sorting everything: r.points is already sorted,
	// so adding a group costs O(V log V + total) rather than
	// O(total log total) — membership changes stay cheap on big rings.
	merged := make([]point, 0, len(r.points)+len(fresh))
	i, j := 0, 0
	for i < len(r.points) && j < len(fresh) {
		if r.points[i].hash <= fresh[j].hash {
			merged = append(merged, r.points[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	merged = append(merged, r.points[i:]...)
	merged = append(merged, fresh[j:]...)
	r.points = merged
}

// Remove deletes a group and all its virtual nodes. Removing an absent
// group is a no-op.
func (r *Ring) Remove(group string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.groups[group] {
		return
	}
	delete(r.groups, group)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.group != group {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Groups returns the current members in sorted order.
func (r *Ring) Groups() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.groups))
	for g := range r.groups {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Size returns the number of member groups.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.groups)
}

// Get returns the group owning key: the first virtual node at or after
// the key's position, wrapping around the circle. It errors on an empty
// ring.
func (r *Ring) Get(key []byte) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", fmt.Errorf("ring: no groups")
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].group, nil
}

// GetString is Get for string keys (e.g. hex sender addresses).
func (r *Ring) GetString(key string) (string, error) { return r.Get([]byte(key)) }
