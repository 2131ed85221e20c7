// Package ring shards the Token Service's token keyspace across replica
// groups with a consistent-hash ring, so issuance capacity scales
// horizontally: each group runs its own quorum-replicated one-time
// counter, and a request is routed to the group that owns its key
// (typically the sender address). Adding a group moves only ~1/N of the
// keyspace — existing groups keep almost all of their keys, which keeps
// caches warm and counters hot during a resharding.
//
// Global index uniqueness across groups does not come from the ring
// (two groups' counters run independently); it comes from striping:
// under a membership view of N groups, DynamicStripe lets the group at
// slot i allocate only indexes ≡ i+1 (mod N) above the view's watermark,
// so the groups partition the index space without ever coordinating. A
// fixed deployment of n frontends is the one-view case: epoch 1, groups
// "0"…"n-1", watermark 0.
package ring

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the number of ring positions each group
// occupies when New is called with 0. More virtual nodes smooth the
// keyspace split (the property test pins ±10% balance at this setting).
const DefaultVirtualNodes = 2048

// Ring is a consistent-hash ring mapping keys to group names. It is safe
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

// mix64 finishes a raw FNV value with the murmur3 fmix64 avalanche.
// Plain FNV-1a of near-identical inputs (vnode names differing only in a
// counter) leaves linear structure in the output that skews arc lengths
// by several hundred percent; the finalizer restores full-width
// dispersion. This is placement, not cryptography — speed over
// preimage resistance.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// FNV-1a parameters, inlined so the hash paths allocate nothing: the
// rebalance-plan computation hashes every virtual node of every group
// (hundreds of millions of calls across a property-test run), and
// hash/fnv's Hash64 interface costs a heap allocation per call.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashKey positions arbitrary bytes on the circle.
func hashKey(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return mix64(h)
}

// vnodeHash positions one of a group's virtual nodes. Byte-identical to
// FNV-1a over group ++ '#' ++ big-endian-4(i), the original wire form.
func vnodeHash(group string, i int) uint64 {
	h := uint64(fnvOffset64)
	for j := 0; j < len(group); j++ {
		h ^= uint64(group[j])
		h *= fnvPrime64
	}
	for _, b := range [5]byte{'#', byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)} {
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

// Counter is the minimal allocator interface DynamicStripe wraps —
// identical to ts.Counter, restated here so the package has no dependency
// cycle with ts.
type Counter interface {
	Next() (int64, error)
}
