package ring

import (
	"fmt"
	"sync"
)

// This file is the dynamic side of the package: a versioned membership
// view and an epoch-aware stripe that keeps global block ids unique
// across membership changes.
//
// Striping alone bakes the group count in, so changing it would collide
// new allocations with old ones: block (k-1)*N+i+1 under N groups and
// block (k'-1)*N'+i'+1 under N' groups can be equal. DynamicStripe
// removes the collision by giving every membership epoch its own region
// of the block space: a view change establishes a watermark W — the
// highest block any group allocated under the old epoch — and the new
// epoch allocates strictly above it, with each group restarting its
// epoch-local sequence from a recorded base. Within one epoch, groups
// stay disjoint by distinct residues mod the group count; across epochs,
// regions are disjoint by the watermark. Both properties together give
// global uniqueness through any sequence of joins and drains. A view
// that never changes (W = base = 0) is plain striping: slot i of N maps
// its k-th allocation to (k-1)*N+i+1.

// View is one epoch of the replica-group membership: an ordered group
// list (a group's slot is its position) plus the block watermark the
// epoch allocates above. Views are value types; a membership change
// produces a new View with a strictly higher Epoch.
type View struct {
	// Epoch numbers the view; views with higher epochs supersede lower
	// ones. The first view of a deployment has Epoch 1.
	Epoch int64 `json:"epoch"`
	// Groups are the member group names in slot order.
	Groups []string `json:"groups"`
	// Watermark is the global block id frontier of the previous epoch:
	// every block this view's members allocate is > Watermark. The first
	// view's watermark is 0.
	Watermark int64 `json:"watermark"`
}

// Slot returns the group's position in the view, or -1 when the group is
// not a member.
func (v View) Slot(group string) int {
	for i, g := range v.Groups {
		if g == group {
			return i
		}
	}
	return -1
}

// Validate rejects malformed views: a non-positive epoch, an empty or
// duplicated group list, or a negative watermark.
func (v View) Validate() error {
	if v.Epoch < 1 {
		return fmt.Errorf("ring: view epoch must be ≥ 1, got %d", v.Epoch)
	}
	if len(v.Groups) == 0 {
		return fmt.Errorf("ring: view %d has no groups", v.Epoch)
	}
	if v.Watermark < 0 {
		return fmt.Errorf("ring: view %d watermark %d is negative", v.Epoch, v.Watermark)
	}
	seen := make(map[string]bool, len(v.Groups))
	for _, g := range v.Groups {
		if g == "" {
			return fmt.Errorf("ring: view %d has an empty group name", v.Epoch)
		}
		if seen[g] {
			return fmt.Errorf("ring: view %d lists group %q twice", v.Epoch, g)
		}
		seen[g] = true
	}
	return nil
}

// ErrNotMember is returned by DynamicStripe.Next when the stripe's group
// is not a member of the current view (it was drained, or it joined and
// has not been advanced into a view yet).
var ErrNotMember = fmt.Errorf("ring: group is not a member of the current view")

// FrontierReader is implemented by underlying counters that can report
// their durable sequence frontier: the highest value any incarnation of
// any coordinator ever committed (the quorum coordinator reads it from a
// replica majority). DynamicStripe.Freeze uses it to report a
// block frontier that survives frontend restarts — the in-memory highest
// only covers blocks mapped since boot.
type FrontierReader interface {
	Frontier() (int64, error)
}

// DynamicStripe maps its group's local allocation sequence onto the
// global block space under the current membership view, and supports
// live view changes through a freeze → advance → resume protocol driven
// by a membership controller (see internal/ts/membership).
//
// Uniqueness invariant: for a fixed view, group at slot s of N maps its
// j-th epoch-local allocation to Watermark + (j-1)*N + s + 1 — residues
// mod N keep same-epoch groups disjoint. Across views, the controller
// sets the new watermark to the maximum block any frozen member ever
// allocated, so new-epoch blocks are strictly above every old-epoch
// block. The base sequence value recorded at adoption makes j restart at
// 1 per epoch without skipping global blocks (local sequence values are
// burned, global blocks are not).
//
// One DynamicStripe must be the sole consumer of its underlying counter
// (the group's quorum coordinator); a second consumer would not break
// uniqueness — the mapping is injective in the underlying sequence — but
// it would leave holes in the group's block region.
type DynamicStripe struct {
	underlying Counter
	group      string

	mu       sync.Mutex
	cond     *sync.Cond
	view     View
	slot     int   // -1 when group ∉ view.Groups
	baseK    int64 // underlying sequence value at view adoption; epoch-local j = k - baseK
	highest  int64 // highest global block mapped since boot; Freeze folds in the durable frontier
	frozen   bool
	inflight int // Next calls between the frozen check and their completion
}

// NewDynamicStripe builds a stripe for group under the initial view.
// baseK is the underlying counter's sequence frontier at adoption: 0 for
// a fresh deployment, or the persisted value when resuming a durable
// frontend (reusing the recorded base is what keeps a restarted frontend
// from re-mapping old sequence numbers onto already-issued blocks).
func NewDynamicStripe(underlying Counter, group string, v View, baseK int64) (*DynamicStripe, error) {
	if underlying == nil {
		return nil, fmt.Errorf("ring: dynamic stripe needs an underlying counter")
	}
	if group == "" {
		return nil, fmt.Errorf("ring: dynamic stripe needs a group name")
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if baseK < 0 {
		return nil, fmt.Errorf("ring: base sequence %d is negative", baseK)
	}
	s := &DynamicStripe{
		underlying: underlying,
		group:      group,
		view:       v,
		slot:       v.Slot(group),
		baseK:      baseK,
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Group returns the stripe's group name.
func (s *DynamicStripe) Group() string { return s.group }

// State returns the current view and the adopted base sequence value —
// what a durable frontend persists so a restart resumes without
// re-mapping blocks.
func (s *DynamicStripe) State() (View, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.view, s.baseK
}

// Highest returns the highest global block the stripe has returned (0
// before the first allocation).
func (s *DynamicStripe) Highest() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.highest
}

// Next implements the counter interface under the current view. It
// blocks while the stripe is frozen for a membership change (the pause
// is the controller round-trip, typically milliseconds) and returns
// ErrNotMember once the group has been drained.
func (s *DynamicStripe) Next() (int64, error) {
	s.mu.Lock()
	for s.frozen {
		s.cond.Wait()
	}
	if s.slot < 0 {
		s.mu.Unlock()
		return 0, ErrNotMember
	}
	view, slot, baseK := s.view, s.slot, s.baseK
	s.inflight++
	s.mu.Unlock()

	// The quorum RPC runs outside the lock; Freeze waits for inflight to
	// drain, so every sequence value obtained under this view is reflected
	// in `highest` before a watermark is computed from it.
	k, err := s.underlying.Next()

	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 {
		s.cond.Broadcast()
	}
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	if k <= baseK {
		s.mu.Unlock()
		return 0, fmt.Errorf("ring: underlying counter went backwards (%d ≤ base %d)", k, baseK)
	}
	global := view.Watermark + (k-baseK-1)*int64(len(view.Groups)) + int64(slot) + 1
	if global > s.highest {
		s.highest = global
	}
	s.mu.Unlock()
	return global, nil
}

// Freeze pauses new allocations, waits for in-flight ones to complete,
// and returns the highest block the stripe's group ever allocated — the
// group's contribution to the next view's watermark — plus whether the
// stripe was already frozen before this call (a controller uses that to
// restore the status quo when its change aborts without touching members
// an earlier, failed change left frozen).
//
// The in-memory highest only covers blocks mapped since boot. When the
// underlying counter is a FrontierReader, Freeze also maps the durable
// sequence frontier through the current view and folds it in, so the
// reported frontier covers blocks issued by previous incarnations too —
// a restarted frontend reporting a frontier below blocks it already
// issued would let the next change compute a watermark that re-maps
// them into duplicates. The durable frontier may exceed the truly
// mapped maximum (sequence values burned as epoch bases, or granted by
// a crashed incarnation, map to blocks never issued); that only pushes
// the watermark up, which burns block ids but never duplicates one.
//
// A frontier-read failure leaves the stripe as it was found (unfrozen,
// unless an earlier freeze is still in effect) and reports the error —
// freezing on a stale frontier is exactly the unsafe case.
func (s *DynamicStripe) Freeze() (int64, bool, error) {
	s.mu.Lock()
	wasFrozen := s.frozen
	s.frozen = true
	for s.inflight > 0 {
		s.cond.Wait()
	}
	view, slot, baseK := s.view, s.slot, s.baseK
	s.mu.Unlock()

	// The quorum read runs outside the lock; no Next can race it (the
	// stripe is frozen and in-flight allocations drained above), so the
	// frontier covers every sequence value this view ever mapped.
	if fr, ok := s.underlying.(FrontierReader); ok && slot >= 0 {
		k, err := fr.Frontier()
		if err != nil {
			if !wasFrozen {
				s.Resume()
			}
			return 0, wasFrozen, fmt.Errorf("ring: read durable frontier: %w", err)
		}
		if k > baseK {
			durable := view.Watermark + (k-baseK-1)*int64(len(view.Groups)) + int64(slot) + 1
			s.mu.Lock()
			if durable > s.highest {
				s.highest = durable
			}
			s.mu.Unlock()
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	return s.highest, wasFrozen, nil
}

// Advance adopts a new view while frozen and returns the base sequence
// value recorded for it (obtained by burning one underlying allocation,
// so the epoch-local sequence restarts at 1 without skipping any global
// block). The stripe stays frozen — the caller persists the (view,
// base) pair and then calls Resume, keeping the persist-before-serve
// ordering. A group absent from the new view is drained: it keeps its
// old base and serves ErrNotMember after Resume.
func (s *DynamicStripe) Advance(v View) (int64, error) {
	if err := v.Validate(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	if !s.frozen {
		s.mu.Unlock()
		return 0, fmt.Errorf("ring: advance requires a frozen stripe")
	}
	if v.Epoch <= s.view.Epoch {
		s.mu.Unlock()
		return 0, fmt.Errorf("ring: view epoch %d does not supersede %d", v.Epoch, s.view.Epoch)
	}
	if v.Watermark < s.highest {
		s.mu.Unlock()
		return 0, fmt.Errorf("ring: view %d watermark %d is below this group's frontier %d",
			v.Epoch, v.Watermark, s.highest)
	}
	slot := v.Slot(s.group)
	s.mu.Unlock()

	baseK := int64(0)
	if slot >= 0 {
		// Burn one underlying allocation as the epoch base. No competing
		// Next can run (frozen), so the base is ≥ every sequence value the
		// old epoch mapped.
		k, err := s.underlying.Next()
		if err != nil {
			return 0, fmt.Errorf("ring: record epoch base: %w", err)
		}
		baseK = k
	}

	s.mu.Lock()
	s.view, s.slot, s.baseK = v, slot, baseK
	s.mu.Unlock()
	return baseK, nil
}

// Resume unfreezes the stripe after an Advance (or aborts a freeze
// without one).
func (s *DynamicStripe) Resume() {
	s.mu.Lock()
	s.frozen = false
	s.cond.Broadcast()
	s.mu.Unlock()
}
