// Package ring keeps the Token Service's one-time indexes unique across
// replica groups. Each group runs its own quorum-replicated counter; two
// groups' counters run independently, so uniqueness comes from
// striping: under a membership view of N groups, DynamicStripe lets the
// group at slot i allocate only indexes ≡ i+1 (mod N) above the view's
// watermark, so the groups partition the index space without ever
// coordinating. A fixed deployment of n frontends is the one-view case:
// epoch 1, groups "0"…"n-1", watermark 0.
//
// PlanChange reports what a membership change would move on a
// consistent-hash ring of the groups (virtual nodes per group, so adding
// a group moves only ~1/N of the keyspace). It is computed exactly, from
// arc widths, and the membership admin endpoints return it with every
// join and drain. Nothing in the tree routes requests by it: clients
// pick a frontend themselves.
package ring

// DefaultVirtualNodes is the number of ring positions each group
// occupies when PlanChange is called with 0. More virtual nodes smooth
// the keyspace split (the property test pins ±10% balance at this setting).
const DefaultVirtualNodes = 2048

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

// Counter is the minimal allocator interface DynamicStripe wraps —
// identical to ts.Counter, restated here so the package has no dependency
// cycle with ts.
type Counter interface {
	Next() (int64, error)
}
