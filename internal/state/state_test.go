package state

import (
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

var (
	addrA = types.Address{0xaa}
	addrB = types.Address{0xbb}
	slot1 = types.Hash{1}
	slot2 = types.Hash{2}
	wordX = types.Hash{0xde, 0xad}
	wordY = types.Hash{0xbe, 0xef}
)

// commit runs f on a fresh view of db and installs the view's write-set:
// the one way state reaches a DB.
func commit(db *DB, f func(v *View)) {
	v := NewView(db)
	f(v)
	db.ApplyWrites(v.Writes())
}

// reader is the read surface a DB and a View share.
type reader interface {
	Exists(types.Address) bool
	Balance(types.Address) *big.Int
	Nonce(types.Address) uint64
	IsContract(types.Address) bool
	GetState(types.Address, types.Hash) types.Hash
}

func TestBalances(t *testing.T) {
	db := New()
	if db.Balance(addrA).Sign() != 0 {
		t.Error("fresh account has nonzero balance")
	}
	commit(db, func(v *View) {
		v.AddBalance(addrA, big.NewInt(100))
		if err := v.SubBalance(addrA, big.NewInt(40)); err != nil {
			t.Fatal(err)
		}
		if got := v.Balance(addrA); got.Int64() != 60 {
			t.Errorf("view balance = %s, want 60", got)
		}
		err := v.SubBalance(addrA, big.NewInt(61))
		if !errors.Is(err, ErrInsufficientBalance) {
			t.Errorf("overdraft err = %v", err)
		}
		if got := v.Balance(addrA); got.Int64() != 60 {
			t.Errorf("failed debit changed balance to %s", got)
		}
	})
	if got := db.Balance(addrA); got.Int64() != 60 {
		t.Errorf("committed balance = %s, want 60", got)
	}
}

func TestBalanceReturnsCopy(t *testing.T) {
	db := New()
	commit(db, func(v *View) { v.AddBalance(addrA, big.NewInt(5)) })
	for name, r := range map[string]reader{"db": db, "view": NewView(db)} {
		b := r.Balance(addrA)
		b.SetInt64(9999)
		if r.Balance(addrA).Int64() != 5 {
			t.Errorf("%s: Balance exposes internal state", name)
		}
	}
}

func TestNonces(t *testing.T) {
	db := New()
	if db.Nonce(addrA) != 0 {
		t.Error("fresh nonce not 0")
	}
	commit(db, func(v *View) {
		v.IncNonce(addrA)
		v.IncNonce(addrA)
	})
	if db.Nonce(addrA) != 2 {
		t.Errorf("nonce = %d, want 2", db.Nonce(addrA))
	}
}

func TestStorage(t *testing.T) {
	db := New()
	if got := db.GetState(addrA, slot1); !got.IsZero() {
		t.Error("fresh slot nonzero")
	}
	commit(db, func(v *View) {
		if prev := v.SetState(addrA, slot1, wordX); !prev.IsZero() {
			t.Error("prev of fresh slot nonzero")
		}
	})
	commit(db, func(v *View) {
		if prev := v.SetState(addrA, slot1, wordY); prev != wordX {
			t.Errorf("prev = %s, want %s", prev, wordX)
		}
	})
	if db.GetState(addrA, slot1) != wordY {
		t.Error("readback mismatch")
	}
	// Storage is per-contract.
	if got := db.GetState(addrB, slot1); !got.IsZero() {
		t.Error("storage leaked across contracts")
	}
	if db.StorageWords(addrA) != 1 {
		t.Errorf("StorageWords = %d, want 1", db.StorageWords(addrA))
	}
}

func TestContractFlag(t *testing.T) {
	db := New()
	if db.IsContract(addrA) {
		t.Error("fresh account marked contract")
	}
	commit(db, func(v *View) { v.MarkContract(addrA) })
	if !db.IsContract(addrA) || !db.Exists(addrA) {
		t.Error("MarkContract did not stick")
	}
}

// Every mutation is undone by a revert: within a view by its own
// journal, and in the DB, once committed, by the DB's.
func TestSnapshotRevert(t *testing.T) {
	db := New()
	commit(db, func(v *View) {
		v.AddBalance(addrA, big.NewInt(100))
		v.SetState(addrA, slot1, wordX)
	})
	mutate := func(v *View) {
		v.AddBalance(addrB, big.NewInt(50))
		if err := v.SubBalance(addrA, big.NewInt(30)); err != nil {
			t.Fatal(err)
		}
		v.SetState(addrA, slot1, wordY)
		v.SetState(addrA, slot2, wordX)
		v.IncNonce(addrA)
		v.MarkContract(addrB)
	}
	check := func(label string, r reader) {
		t.Helper()
		if r.Balance(addrA).Int64() != 100 {
			t.Errorf("%s: balance A = %s, want 100", label, r.Balance(addrA))
		}
		if r.Balance(addrB).Sign() != 0 || r.Exists(addrB) {
			t.Errorf("%s: B = %s, exists %v, want absent", label, r.Balance(addrB), r.Exists(addrB))
		}
		if r.GetState(addrA, slot1) != wordX {
			t.Errorf("%s: slot1 not reverted", label)
		}
		if !r.GetState(addrA, slot2).IsZero() {
			t.Errorf("%s: slot2 not deleted on revert", label)
		}
		if r.Nonce(addrA) != 0 {
			t.Errorf("%s: nonce not reverted", label)
		}
		if r.IsContract(addrB) {
			t.Errorf("%s: contract flag not reverted", label)
		}
	}

	v := NewView(db)
	snap := v.Snapshot()
	mutate(v)
	v.RevertToSnapshot(snap)
	check("view", v)
	if wa, ws := writeSet(v.Writes()); len(wa)+len(ws) != 0 {
		t.Errorf("reverted view still writes %d accounts and %d slots", len(wa), len(ws))
	}

	snap = db.Snapshot()
	commit(db, mutate)
	db.RevertToSnapshot(snap)
	check("db", db)
	if db.StorageWords(addrA) != 1 {
		t.Errorf("db: StorageWords(A) = %d, want 1", db.StorageWords(addrA))
	}
}

func TestNestedSnapshots(t *testing.T) {
	credit := func(n int64) func(v *View) {
		return func(v *View) { v.AddBalance(addrA, big.NewInt(n)) }
	}
	type stack interface {
		reader
		Snapshot() int
		RevertToSnapshot(int)
	}
	db := New()
	v := NewView(db)
	for _, s := range []struct {
		name  string
		st    stack
		apply func(f func(v *View))
	}{
		{"view", v, func(f func(*View)) { f(v) }},
		{"db", db, func(f func(*View)) { commit(db, f) }},
	} {
		s.apply(credit(1))
		s1 := s.st.Snapshot()
		s.apply(credit(10))
		s2 := s.st.Snapshot()
		s.apply(credit(100))

		s.st.RevertToSnapshot(s2)
		if got := s.st.Balance(addrA).Int64(); got != 11 {
			t.Errorf("%s: after inner revert: %d, want 11", s.name, got)
		}
		s.st.RevertToSnapshot(s1)
		if got := s.st.Balance(addrA).Int64(); got != 1 {
			t.Errorf("%s: after outer revert: %d, want 1", s.name, got)
		}
		// A stale snapshot is a no-op.
		s.st.RevertToSnapshot(s2)
		if got := s.st.Balance(addrA).Int64(); got != 1 {
			t.Errorf("%s: after a stale revert: %d, want 1", s.name, got)
		}
	}
}

func TestRevertFreshAccountDisappears(t *testing.T) {
	db := New()
	touch := func(v *View) { v.AddBalance(addrA, big.NewInt(0)) } // touch only

	v := NewView(db)
	snap := v.Snapshot()
	touch(v)
	if !v.Exists(addrA) {
		t.Fatal("touched account should exist in the view")
	}
	v.RevertToSnapshot(snap)
	if v.Exists(addrA) {
		t.Error("reverted account still exists in the view")
	}

	snap = db.Snapshot()
	commit(db, touch)
	if !db.Exists(addrA) {
		t.Fatal("touched account should exist")
	}
	db.RevertToSnapshot(snap)
	if db.Exists(addrA) {
		t.Error("reverted account still exists")
	}
}

func TestRevertFreshStorageLeavesDigest(t *testing.T) {
	db := New()
	before, err := db.Digest()
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	commit(db, func(v *View) { v.SetState(addrA, slot1, wordX) }) // addrA's first word
	db.RevertToSnapshot(snap)
	after, err := db.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Error("reverting a contract's first storage write changed the digest")
	}
}

// A zero word is an absent slot: storing it leaves no key, clearing a
// contract's last word drops its storage, and a revert restores both.
func TestZeroWordIsAbsentSlot(t *testing.T) {
	db := New()
	empty, err := db.Digest()
	if err != nil {
		t.Fatal(err)
	}
	digestIs := func(want types.Hash, label string) {
		t.Helper()
		got, err := db.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: digest %s, want %s", label, got, want)
		}
	}
	commit(db, func(v *View) {
		if prev := v.SetState(addrA, slot1, types.Hash{}); !prev.IsZero() {
			t.Errorf("prev of fresh slot = %s", prev)
		}
	})
	digestIs(empty, "zero into a storage-less contract")

	commit(db, func(v *View) { v.SetState(addrA, slot1, wordX) })
	snap := db.Snapshot()
	commit(db, func(v *View) {
		if prev := v.SetState(addrA, slot1, types.Hash{}); prev != wordX {
			t.Errorf("prev = %s, want %s", prev, wordX)
		}
	})
	if n := db.StorageWords(addrA); n != 0 {
		t.Errorf("StorageWords after clearing the last word = %d, want 0", n)
	}
	digestIs(empty, "last word cleared")

	db.RevertToSnapshot(snap)
	if db.GetState(addrA, slot1) != wordX || db.StorageWords(addrA) != 1 {
		t.Errorf("revert did not restore the cleared word: %s, %d words",
			db.GetState(addrA, slot1), db.StorageWords(addrA))
	}
}

func TestQuickSnapshotRoundTrip(t *testing.T) {
	// Property: any batch of mutations is fully undone by a revert, of
	// the view that made them or of the DB they were committed to.
	f := func(amounts []uint8, slots []uint8, inView bool) bool {
		db := New()
		commit(db, func(v *View) { v.AddBalance(addrA, big.NewInt(1000)) })
		mutate := func(v *View) {
			for _, a := range amounts {
				v.AddBalance(addrA, big.NewInt(int64(a)))
				v.IncNonce(addrA)
			}
			for _, s := range slots {
				v.SetState(addrA, types.Hash{s}, types.Hash{s, s})
			}
		}
		var r reader = db
		if inView {
			v := NewView(db)
			snap := v.Snapshot()
			mutate(v)
			v.RevertToSnapshot(snap)
			r = v
		} else {
			snap := db.Snapshot()
			commit(db, mutate)
			db.RevertToSnapshot(snap)
		}
		if r.Balance(addrA).Int64() != 1000 || r.Nonce(addrA) != 0 {
			return false
		}
		for _, s := range slots {
			if !r.GetState(addrA, types.Hash{s}).IsZero() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ApplyWrites of a write-set over existing locations journals typed
// entries: with the journal's capacity reused across a revert, it
// allocates nothing.
func TestApplyWritesAllocations(t *testing.T) {
	db := New()
	commit(db, func(v *View) {
		v.AddBalance(addrA, big.NewInt(1e18))
		v.SetState(addrA, slot1, wordX)
	})
	v := NewView(db)
	v.AddBalance(addrA, big.NewInt(12345))
	v.IncNonce(addrA)
	v.SetState(addrA, slot1, wordY)
	ws := v.Writes()
	run := func() {
		snap := db.Snapshot()
		db.ApplyWrites(ws)
		db.RevertToSnapshot(snap)
	}
	run()
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Errorf("apply and revert allocated %.0f times, want 0", got)
	}
}
