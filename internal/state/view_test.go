package state

import (
	"errors"
	"math/big"
	"testing"

	"repro/internal/types"
)

func TestViewReadsFallThroughToBase(t *testing.T) {
	base := New()
	a := addr(1)
	base.AddBalance(a, big.NewInt(100))
	base.IncNonce(a)
	base.SetState(a, slot(0), slot(9))

	v := NewView(base)
	if got := v.Balance(a); got.Cmp(big.NewInt(100)) != 0 {
		t.Errorf("balance = %s, want 100", got)
	}
	if v.Nonce(a) != 1 {
		t.Errorf("nonce = %d, want 1", v.Nonce(a))
	}
	if v.GetState(a, slot(0)) != slot(9) {
		t.Error("slot read missed the base value")
	}
	if !v.Exists(a) || v.Exists(addr(2)) {
		t.Error("existence mismatch")
	}
	if _, ok := v.accts[a]; !ok {
		t.Error("account read missing from the read-set")
	}
	if _, ok := v.slots[SlotKey{Addr: a, Slot: slot(0)}]; !ok {
		t.Error("slot read missing from the read-set")
	}
	if base.Exists(addr(2)) {
		t.Error("a view's read created an account in the base")
	}
}

// The conflict check is an intersection of what a view loaded with what
// lower transactions wrote.
func TestConflictIsReadWriteIntersection(t *testing.T) {
	base := New()
	hot, cold, restored := addr(7), addr(8), addr(9)
	base.AddBalance(hot, big.NewInt(50))

	// A lower transaction credits hot and writes restored's slot back to
	// its original value.
	lower := NewView(base)
	lower.AddBalance(hot, big.NewInt(1))
	lower.SetState(restored, slot(0), slot(4))
	lower.SetState(restored, slot(0), types.Hash{})
	written := NewWritten()
	written.Add(lower.Writes())

	cases := []struct {
		name string
		read func(v *View)
		want bool
	}{
		{"read of a location a lower tx wrote", func(v *View) { v.Balance(hot) }, true},
		{"read of an untouched location", func(v *View) { v.Balance(cold) }, false},
		{"read of a write restored to its original value", func(v *View) { v.GetState(restored, slot(0)) }, false},
	}
	for _, tc := range cases {
		v := NewView(base)
		tc.read(v)
		if got := v.Meets(written); got != tc.want {
			t.Errorf("%s: Meets = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestViewNetWritesSkipRevertedAndRestoredValues(t *testing.T) {
	base := New()
	a, b := addr(1), addr(2)
	base.AddBalance(a, big.NewInt(100))

	v := NewView(base)
	// A write fully undone by a revert leaves no net entry.
	snap := v.Snapshot()
	v.AddBalance(b, big.NewInt(30))
	v.SetState(a, slot(1), slot(5))
	v.RevertToSnapshot(snap)
	// A value overwritten back to its original is also no net change.
	v.SetState(a, slot(2), slot(8))
	v.SetState(a, slot(2), types.Hash{})
	// One real write survives.
	if err := v.SubBalance(a, big.NewInt(40)); err != nil {
		t.Fatal(err)
	}

	ws := v.Writes()
	if n := len(ws.accts) + len(ws.slots); n != 1 {
		t.Fatalf("write-set has %d entries, want 1 (only a's balance)", n)
	}
	if got := ws.accts[a]; got.balance.Cmp(big.NewInt(60)) != 0 {
		t.Errorf("a's net balance = %s, want 60", got.balance)
	}
	// Reverted reads are still reads: b and both slots gate validity.
	if n := len(v.accts) + len(v.slots); n != 4 {
		t.Errorf("read-set has %d entries, want 4", n)
	}
}

func TestViewSubBalanceMatchesDBError(t *testing.T) {
	base := New()
	a := addr(9)
	base.AddBalance(a, big.NewInt(3))
	v := NewView(base)

	verr := v.SubBalance(a, big.NewInt(10))
	derr := base.SubBalance(a, big.NewInt(10))
	if verr == nil || derr == nil {
		t.Fatal("expected insufficient-balance errors")
	}
	if !errors.Is(verr, ErrInsufficientBalance) {
		t.Error("view error does not wrap ErrInsufficientBalance")
	}
	if verr.Error() != derr.Error() {
		t.Errorf("error text diverges:\nview: %s\ndb:   %s", verr, derr)
	}
}

func TestApplyWritesRoundTripsThroughDB(t *testing.T) {
	base := New()
	a := addr(5)
	base.AddBalance(a, big.NewInt(100))

	v := NewView(base)
	if err := v.SubBalance(a, big.NewInt(25)); err != nil {
		t.Fatal(err)
	}
	v.IncNonce(a)
	v.SetState(a, slot(3), slot(1))

	base.ApplyWrites(v.Writes())
	base.DiscardJournal()
	if got := base.Balance(a); got.Cmp(big.NewInt(75)) != 0 {
		t.Errorf("balance = %s, want 75", got)
	}
	if base.Nonce(a) != 1 {
		t.Errorf("nonce = %d, want 1", base.Nonce(a))
	}
	if base.GetState(a, slot(3)) != slot(1) {
		t.Error("slot write lost")
	}
}

func TestApplyWritesIsJournaled(t *testing.T) {
	base := New()
	a := addr(6)
	base.AddBalance(a, big.NewInt(10))

	v := NewView(base)
	v.AddBalance(a, big.NewInt(5))
	v.IncNonce(a)

	snap := base.Snapshot()
	base.ApplyWrites(v.Writes())
	base.RevertToSnapshot(snap)
	if got := base.Balance(a); got.Cmp(big.NewInt(10)) != 0 {
		t.Errorf("balance after revert = %s, want 10", got)
	}
	if base.Nonce(a) != 0 {
		t.Errorf("nonce after revert = %d, want 0", base.Nonce(a))
	}
}

func TestDigestTracksStateChanges(t *testing.T) {
	db1, db2 := New(), New()
	d1a, err := db1.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2a, err := db2.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1a != d2a {
		t.Error("empty DBs digest differently")
	}
	db1.AddBalance(addr(1), big.NewInt(1))
	d1b, err := db1.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1b == d1a {
		t.Error("digest did not change with state")
	}
	db2.AddBalance(addr(1), big.NewInt(1))
	d2b, err := db2.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1b != d2b {
		t.Error("equal states digest differently")
	}
}
