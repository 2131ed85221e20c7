// Package ring keeps the Token Service's one-time indexes unique across
// replica groups. Each group runs its own quorum-replicated counter; two
// groups' counters run independently, so uniqueness comes from
// striping: under a membership view of N groups, DynamicStripe lets the
// group at slot i allocate only indexes ≡ i+1 (mod N) above the view's
// watermark, so the groups partition the index space without ever
// coordinating. Only a membership Manager drives a stripe
// (internal/ts/membership): frontends that share one quorum need none,
// since the quorum already grants each of them distinct blocks, and a
// fixed set of groups is a membership view that never changes. Nothing
// routes requests by group: clients pick a frontend themselves.
package ring

// Counter is the minimal allocator interface DynamicStripe wraps —
// identical to ts.Counter, restated here so the package has no dependency
// cycle with ts.
type Counter interface {
	Next() (int64, error)
}
