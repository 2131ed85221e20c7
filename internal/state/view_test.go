package state

import (
	"errors"
	"math/big"
	"testing"

	"repro/internal/types"
)

// readSet lists the locations v loaded, with their current values.
func readSet(v *View) (map[types.Address]acctVal, map[SlotKey]types.Hash) {
	accts, slots := map[types.Address]acctVal{}, map[SlotKey]types.Hash{}
	for _, r := range v.accts {
		accts[r.addr] = r.cur
	}
	for _, r := range v.slots {
		slots[r.key] = r.cur
	}
	return accts, slots
}

// writeSet lists the locations ws writes, with their final values.
func writeSet(ws WriteSet) (map[types.Address]acctVal, map[SlotKey]types.Hash) {
	accts, slots := readSet(ws.v)
	for _, r := range ws.v.accts {
		if !r.written() {
			delete(accts, r.addr)
		}
	}
	for _, r := range ws.v.slots {
		if !r.written() {
			delete(slots, r.key)
		}
	}
	return accts, slots
}

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
	accts, slots := readSet(v)
	if _, ok := accts[a]; !ok {
		t.Error("account read missing from the read-set")
	}
	if _, ok := slots[SlotKey{Addr: a, Slot: slot(0)}]; !ok {
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

	wa, ws := writeSet(v.Writes())
	if n := len(wa) + len(ws); n != 1 {
		t.Fatalf("write-set has %d entries, want 1 (only a's balance)", n)
	}
	if got := wa[a]; got.balance != (Wei{60}) {
		t.Errorf("a's net balance = %s, want 60", got.balance)
	}
	// Reverted reads are still reads: b and both slots gate validity.
	if ra, rs := readSet(v); len(ra)+len(rs) != 4 {
		t.Errorf("read-set has %d entries, want 4", len(ra)+len(rs))
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

// A View is one allocation: loading accounts and slots, mutating and
// reverting them, checking the read-set and extracting the write-set all
// work on records and journal entries held inside it.
func TestViewAllocations(t *testing.T) {
	base := New()
	sender, contract := addr(1), addr(2)
	base.AddBalance(sender, big.NewInt(1e18))
	base.MarkContract(contract)
	base.SetState(contract, slot(0), slot(7))
	fee, value := big.NewInt(21000), big.NewInt(5)
	written := NewWritten()
	run := func() *View {
		v := NewView(base)
		v.IncNonce(sender)
		_ = v.SubBalance(sender, fee)
		snap := v.Snapshot()
		_ = v.SubBalance(sender, value)
		v.AddBalance(contract, value)
		for k := byte(0); k < 4; k++ {
			v.SetState(contract, slot(k), slot(k+1))
		}
		v.RevertToSnapshot(snap)
		v.SetState(contract, slot(9), slot(1))
		_ = v.GetState(contract, slot(0))
		v.AddBalance(sender, value)
		if v.Meets(written) {
			t.Fatal("an empty set met the view")
		}
		_ = v.Writes()
		return v
	}
	accts, slots := writeSet(run().Writes())
	if len(accts) != 1 || len(slots) != 1 {
		t.Fatalf("write-set holds %d accounts and %d slots, want 1 and 1", len(accts), len(slots))
	}
	if got := testing.AllocsPerRun(100, func() { run() }); got > 1 {
		t.Errorf("a view's load, mutate, revert and write-set cost %.0f allocations, budget 1 (the view)", got)
	}
}

// Past indexAbove records a view looks locations up through a map; the
// records, the read-set and the write-set are the same either way.
func TestViewManyLocations(t *testing.T) {
	base := New()
	c := addr(3)
	const n = 3 * indexAbove
	v := NewView(base)
	for k := 0; k < n; k++ {
		v.SetState(c, slot(byte(k)), slot(byte(k+1)))
		v.AddBalance(addr(byte(100+k)), big.NewInt(int64(k+1)))
	}
	for k := 0; k < n; k++ {
		if v.GetState(c, slot(byte(k))) != slot(byte(k+1)) {
			t.Fatalf("slot %d lost", k)
		}
		if v.BalanceWei(addr(byte(100+k))) != (Wei{uint64(k + 1)}) {
			t.Fatalf("balance %d lost", k)
		}
	}
	if len(v.slots) != n || len(v.accts) != n {
		t.Errorf("records: %d slots, %d accounts, want %d each", len(v.slots), len(v.accts), n)
	}
	base.ApplyWrites(v.Writes())
	if base.StorageWords(c) != n || base.Balance(addr(100+n-1)).Int64() != n {
		t.Errorf("applied %d words and balance %s", base.StorageWords(c), base.Balance(addr(100+n-1)))
	}
}
