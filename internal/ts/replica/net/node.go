package net

import (
	"fmt"
	"net/http"
	"sync"

	"repro/internal/rpc"
	"repro/internal/store"
)

// Node is one networked counter replica: the state machine plus its
// HTTP handler. A Node optionally journals to a store.Backend with the
// same durability contract as store.Counter — a promise or grant is on
// stable storage before the ack leaves, so a crash can lose an ack but
// never un-happen one.
type Node struct {
	mu       sync.Mutex
	accepted int64
	promised int64
	backend  store.Backend // nil = volatile (tests, throwaway groups)
}

// NewNode creates a volatile replica starting from zero state. It
// forgets everything on restart — use OpenNode for replicas that must
// survive crashes.
func NewNode() *Node { return &Node{} }

// OpenNode replays a backend and returns a replica resuming from its
// durable state: accepted is the highest journaled lease, promised the
// highest journaled epoch. Every later promise and grant is journaled
// before it is acknowledged.
func OpenNode(b store.Backend) (*Node, error) {
	snap, recs, err := b.Replay()
	if err != nil {
		return nil, fmt.Errorf("replica/net: replay node: %w", err)
	}
	if snap != nil {
		return nil, fmt.Errorf("replica/net: node backend has an unexpected snapshot (%d bytes)", len(snap))
	}
	n := &Node{backend: b}
	for _, rec := range recs {
		switch rec.Kind {
		case store.KindLease:
			if rec.Value > n.accepted {
				n.accepted = rec.Value
			}
		case store.KindEpoch:
			if rec.Value > n.promised {
				n.promised = rec.Value
			}
		}
	}
	return n, nil
}

// State returns the replica's current protocol state.
func (n *Node) State() (accepted, promised int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.accepted, n.promised
}

// Fence promises epoch iff it is strictly greater than any promise made
// before, journaling the promise before reporting success. The returned
// state is post-decision either way, so a rejected coordinator learns
// the epoch that outbid it.
func (n *Node) Fence(epoch int64) (wireAck, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if epoch <= n.promised {
		return wireAck{OK: false, State: wireState{Accepted: n.accepted, Promised: n.promised}}, nil
	}
	if n.backend != nil {
		// Durable before acked: a restarted replica must keep rejecting
		// the coordinators this promise fenced off.
		if err := n.backend.Append(store.Record{Kind: store.KindEpoch, Value: epoch}); err != nil {
			return wireAck{}, fmt.Errorf("replica/net: persist epoch %d: %w", epoch, err)
		}
	}
	n.promised = epoch
	return wireAck{OK: true, State: wireState{Accepted: n.accepted, Promised: n.promised}}, nil
}

// Grant accepts lease under epoch iff the epoch is at least the current
// promise and the lease is strictly greater than anything accepted
// before, journaling the lease before reporting success. Strict lease
// monotonicity is the safety core: any two majorities intersect, so two
// coordinators can never both commit the same lease.
func (n *Node) Grant(epoch, lease int64) (wireAck, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if epoch < n.promised || lease <= n.accepted {
		return wireAck{OK: false, State: wireState{Accepted: n.accepted, Promised: n.promised}}, nil
	}
	if n.backend != nil {
		// Durable before acked: an acked lease must survive a crash, or a
		// rejoined replica could help a second coordinator commit it again.
		if err := n.backend.Append(store.Record{Kind: store.KindLease, Value: lease}); err != nil {
			return wireAck{}, fmt.Errorf("replica/net: persist lease %d: %w", lease, err)
		}
	}
	n.accepted = lease
	if epoch > n.promised {
		// Seeing a grant from a newer epoch implies its fence round
		// happened; adopt it (volatile is fine — the fence journal entry
		// exists on the majority that promised it).
		n.promised = epoch
	}
	return wireAck{OK: true, State: wireState{Accepted: n.accepted, Promised: n.promised}}, nil
}

// Handler returns the replica's HTTP interface (PathState, PathFence,
// PathGrant).
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathState, func(w http.ResponseWriter, r *http.Request) {
		accepted, promised := n.State()
		rpc.WriteJSON(w, http.StatusOK, wireState{Accepted: accepted, Promised: promised})
	})
	mux.HandleFunc("POST "+PathFence, func(w http.ResponseWriter, r *http.Request) {
		var req wireFenceRequest
		if !rpc.Decode(w, r, maxRequestBytes, &req) {
			return
		}
		ack, err := n.Fence(req.Epoch)
		writeAck(w, ack, err)
	})
	mux.HandleFunc("POST "+PathGrant, func(w http.ResponseWriter, r *http.Request) {
		var req wireGrantRequest
		if !rpc.Decode(w, r, maxRequestBytes, &req) {
			return
		}
		ack, err := n.Grant(req.Epoch, req.Lease)
		writeAck(w, ack, err)
	})
	return mux
}

// maxRequestBytes caps a fence or grant body. A legitimate one is two
// int64 fields, under 64 bytes of JSON; the cap only has to stop a peer
// from streaming an unbounded body into the decoder.
const maxRequestBytes = 4 << 10

// writeAck answers a fence or grant: the ack, or a 500 when the journal
// refused the promise or lease.
func writeAck(w http.ResponseWriter, ack wireAck, err error) {
	if err != nil {
		rpc.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	rpc.WriteJSON(w, http.StatusOK, ack)
}
