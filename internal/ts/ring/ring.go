// Package ring keeps the Token Service's one-time indexes unique across
// replica groups. Each group runs its own quorum-replicated counter; two
// groups' counters run independently, so uniqueness comes from
// striping: under a membership view of N groups, DynamicStripe lets the
// group at slot i allocate only indexes ≡ i+1 (mod N) above the view's
// watermark, so the groups partition the index space without ever
// coordinating. A fixed deployment of n frontends is the one-view case:
// epoch 1, groups "0"…"n-1", watermark 0. Nothing routes requests by
// group: clients pick a frontend themselves.
package ring

// Counter is the minimal allocator interface DynamicStripe wraps —
// identical to ts.Counter, restated here so the package has no dependency
// cycle with ts.
type Counter interface {
	Next() (int64, error)
}
