// Package net implements the quorum-replicated monotonic counter the
// paper prescribes for highly available Token Services issuing one-time
// tokens (§ VII-B: "its replicas have to coordinate on the current counter
// value ... efficiently realized via a replicated counter primitive").
// Replica Nodes speak HTTP/JSON and a client-side Coordinator implements
// ts.Counter by running a lease-based majority-ack protocol against them,
// with epoch fencing, replica failure detection, and rejoin-with-catchup.
// The group tolerates ⌊(N−1)/2⌋ unreachable replicas.
//
// Protocol, per allocation:
//
//  1. Fence (once per coordinator, repeated only after preemption): the
//     coordinator proposes an epoch to every replica. A replica promises
//     the epoch iff it is strictly greater than any epoch it already
//     promised — persisting the promise before acking — and returns its
//     highest accepted lease either way. A majority of promises
//     establishes the epoch.
//  2. Grant: the coordinator reads a majority's accepted leases, picks
//     candidate = max+1, and asks every replica to grant it under its
//     epoch. A replica grants iff the epoch is ≥ its promise and the
//     lease is strictly greater than anything it accepted — persisting
//     the lease before acking. A majority of grants commits the lease.
//
// Safety does not rest on the epochs: because grants are strictly
// monotonic per replica and any two majorities intersect, two
// coordinators can never commit the same lease even with interleaved
// epochs. Epochs are fencing for liveness — a preempted coordinator
// learns immediately (a nack carries the higher promise) instead of
// burning propose rounds losing races it cannot win.
//
// Rejoin-with-catchup needs no extra machinery: a replica restarting
// from its WAL replays its accepted lease and promised epoch, and
// because coordinators propose absolute values read from a live
// majority, the first grant a rejoined (possibly stale) replica acks
// snaps it forward to the cluster's frontier.
package net

// wireState is a replica's protocol state, returned by every endpoint so
// a coordinator learns the frontier from any reply, ack or nack.
type wireState struct {
	// Accepted is the highest lease the replica has durably granted.
	Accepted int64 `json:"accepted"`
	// Promised is the highest epoch the replica has durably promised.
	Promised int64 `json:"promised"`
}

// wireFenceRequest asks a replica to promise an epoch.
type wireFenceRequest struct {
	Epoch int64 `json:"epoch"`
}

// wireGrantRequest asks a replica to accept a lease under an epoch.
type wireGrantRequest struct {
	Epoch int64 `json:"epoch"`
	Lease int64 `json:"lease"`
}

// wireAck is the reply to a fence or grant. OK reports whether the
// request was admitted; State is the replica's (post-request) state, so
// nacks double as catch-up hints.
type wireAck struct {
	OK    bool      `json:"ok"`
	State wireState `json:"state"`
}

// Protocol endpoints served by a Node.
const (
	// PathState returns the replica's wireState (GET).
	PathState = "/v1/replica/state"
	// PathFence proposes an epoch (POST wireFenceRequest → wireAck).
	PathFence = "/v1/replica/fence"
	// PathGrant proposes a lease (POST wireGrantRequest → wireAck).
	PathGrant = "/v1/replica/grant"
)
