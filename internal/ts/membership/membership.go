// Package membership makes the sharded Token Service's replica-group
// set operable at runtime: an epoch-numbered membership view (persisted
// as internal/store WAL records) plus a freeze → advance → resume
// protocol that lets groups join and drain under load without ever
// issuing a duplicate one-time index.
//
// The moving parts, bottom to top:
//
//   - ring.DynamicStripe maps each group's quorum-local allocation
//     sequence onto the global block space under the current view, and
//     pauses allocation while a view change is in flight.
//   - Every frontend runs a Manager wrapping its own stripe and
//     ShardedCounter. The Manager serves the member endpoints
//     (POST /v1/membership/{freeze,advance,resume,release,adopt}) that a
//     view change drives, and the admin endpoints
//     (POST /v1/admin/{join,drain}) that initiate one.
//   - Any frontend can act as the change controller: it freezes every
//     member, computes the new watermark (the highest block any member
//     allocated), advances everyone to the epoch+1 view — each member
//     persists the view durably BEFORE acking — hands the drained
//     group's unexhausted leases to a successor, and resumes.
//
// Safety: within an epoch, groups allocate disjoint block residues;
// across epochs, the watermark separates regions; released leases are
// re-issued by exactly one adopter. A joining group serves only after
// catch-up fencing — recording its epoch base runs one full quorum
// round, which establishes a fenced epoch above any prior coordinator
// and reads the majority frontier before the first block maps.
//
// Liveness through failures fails toward unavailability, never toward
// duplication. If a change dies before any member advanced, the
// controller resumes exactly the members it froze — status quo
// restored. If it dies mid-advance, members already on the new epoch
// resume and serve, while the rest STAY FROZEN: resuming them would let
// two epochs allocate concurrently with different strides, whose block
// regions can collide. The operator re-runs the change once the fault
// clears — a retry allocates a fresh epoch above every member's current
// one, so already-advanced members never see a stale epoch — or, when
// the member set is already the intended one, POSTs /v1/admin/repair on
// an advanced frontend to re-advance everyone onto a fresh epoch.
// Controllers whose view a member has outrun abort before computing a
// watermark (the member's allocations would not be covered) and name
// the frontend to drive the change from. A frontend crash outside a
// view change is handled by epoch-fenced takeover instead
// (Coordinator.Fence), which needs no membership round at all.
package membership

import (
	"encoding/json"
	"fmt"

	"repro/internal/store"
	"repro/internal/ts/ring"
)

// FreezeInfo is what a member reports from Freeze: the input a
// controller needs to compute a safe watermark and to unwind safely when
// the change aborts.
type FreezeInfo struct {
	// Highest is the highest global block the member's group ever
	// allocated, across restarts (derived from the durable quorum
	// frontier, possibly over-approximated — safe, see
	// ring.DynamicStripe.Freeze).
	Highest int64 `json:"highest"`
	// Epoch is the member's currently adopted view epoch. The controller
	// allocates the next epoch above every member's, and aborts when a
	// member is ahead of its own view (a stale controller must not pick
	// the watermark).
	Epoch int64 `json:"epoch"`
	// WasFrozen reports whether the member was already frozen before
	// this call — i.e. by an earlier change attempt that failed
	// mid-advance. A controller aborting before any advance resumes only
	// members with WasFrozen=false, leaving the earlier failure's
	// fail-frozen state intact.
	WasFrozen bool `json:"wasFrozen"`
}

// Member is one replica group's handle in a view change, implemented
// in-process by the controller's own Manager and over HTTP for every
// other frontend.
type Member interface {
	// Group returns the member's group name.
	Group() string
	// Freeze pauses the member's allocations and reports its all-time
	// block frontier, current epoch, and prior frozen state. Idempotent.
	Freeze() (FreezeInfo, error)
	// Advance adopts the new view (and the accompanying frontend URL
	// map), persisting both durably before returning. The member stays
	// frozen until Resume.
	Advance(v ring.View, urls map[string]string) error
	// Resume unfreezes allocation under the current view.
	Resume() error
	// ReleaseLeases drains the member's unexhausted block-lease
	// remainders and returns them — called on a draining group after it
	// left the view.
	ReleaseLeases() ([]store.IndexRange, error)
	// AdoptLeases feeds released remainders into the member's free-list,
	// to be issued before fresh blocks.
	AdoptLeases([]store.IndexRange) error
}

// State is the durable membership state a frontend persists on every
// adopted view and replays at startup.
type State struct {
	// View is the adopted membership view.
	View ring.View `json:"view"`
	// BaseK is the quorum sequence value recorded when this frontend
	// adopted the view; reusing it across a restart keeps the restarted
	// stripe from re-mapping old sequence numbers onto issued blocks.
	BaseK int64 `json:"baseK"`
	// URLs maps every group in the view to its frontend base URL.
	URLs map[string]string `json:"urls,omitempty"`
}

// persistState appends the state as a KindView WAL record.
func persistState(journal store.Backend, st State) error {
	if journal == nil {
		return nil
	}
	blob, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("membership: encode view %d: %w", st.View.Epoch, err)
	}
	if err := journal.Append(store.Record{Kind: store.KindView, Value: st.View.Epoch, Data: blob}); err != nil {
		return fmt.Errorf("membership: persist view %d: %w", st.View.Epoch, err)
	}
	return nil
}

// StateFromRecords extracts the highest-epoch persisted membership state
// from a replayed journal, or ok=false when none was ever recorded. It
// skips every non-view kind: the journal interleaves lease-reclaim
// records, and internal/ts/stack replays it once for both readers.
func StateFromRecords(recs []store.Record) (st State, ok bool, err error) {
	for _, rec := range recs {
		if rec.Kind != store.KindView {
			continue
		}
		var cand State
		if err := json.Unmarshal(rec.Data, &cand); err != nil {
			return State{}, false, fmt.Errorf("membership: corrupt view record (epoch %d): %w", rec.Value, err)
		}
		if !ok || cand.View.Epoch > st.View.Epoch {
			st, ok = cand, true
		}
	}
	return st, ok, nil
}
