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

func TestBalances(t *testing.T) {
	db := New()
	if db.Balance(addrA).Sign() != 0 {
		t.Error("fresh account has nonzero balance")
	}
	db.AddBalance(addrA, big.NewInt(100))
	if err := db.SubBalance(addrA, big.NewInt(40)); err != nil {
		t.Fatal(err)
	}
	if got := db.Balance(addrA); got.Int64() != 60 {
		t.Errorf("balance = %s, want 60", got)
	}
	err := db.SubBalance(addrA, big.NewInt(61))
	if !errors.Is(err, ErrInsufficientBalance) {
		t.Errorf("overdraft err = %v", err)
	}
	if got := db.Balance(addrA); got.Int64() != 60 {
		t.Errorf("failed debit changed balance to %s", got)
	}
}

func TestBalanceReturnsCopy(t *testing.T) {
	db := New()
	db.AddBalance(addrA, big.NewInt(5))
	b := db.Balance(addrA)
	b.SetInt64(9999)
	if db.Balance(addrA).Int64() != 5 {
		t.Error("Balance exposes internal big.Int")
	}
}

func TestNonces(t *testing.T) {
	db := New()
	if db.Nonce(addrA) != 0 {
		t.Error("fresh nonce not 0")
	}
	db.IncNonce(addrA)
	db.IncNonce(addrA)
	if db.Nonce(addrA) != 2 {
		t.Errorf("nonce = %d, want 2", db.Nonce(addrA))
	}
}

func TestStorage(t *testing.T) {
	db := New()
	if got := db.GetState(addrA, slot1); !got.IsZero() {
		t.Error("fresh slot nonzero")
	}
	prev := db.SetState(addrA, slot1, wordX)
	if !prev.IsZero() {
		t.Error("prev of fresh slot nonzero")
	}
	prev = db.SetState(addrA, slot1, wordY)
	if prev != wordX {
		t.Errorf("prev = %s, want %s", prev, wordX)
	}
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
	db.MarkContract(addrA)
	if !db.IsContract(addrA) {
		t.Error("MarkContract did not stick")
	}
}

func TestSnapshotRevert(t *testing.T) {
	db := New()
	db.AddBalance(addrA, big.NewInt(100))
	db.SetState(addrA, slot1, wordX)

	snap := db.Snapshot()
	db.AddBalance(addrB, big.NewInt(50))
	if err := db.SubBalance(addrA, big.NewInt(30)); err != nil {
		t.Fatal(err)
	}
	db.SetState(addrA, slot1, wordY)
	db.SetState(addrA, slot2, wordX)
	db.IncNonce(addrA)
	db.MarkContract(addrB)

	db.RevertToSnapshot(snap)

	if db.Balance(addrA).Int64() != 100 {
		t.Errorf("balance A = %s, want 100", db.Balance(addrA))
	}
	if db.Balance(addrB).Sign() != 0 {
		t.Errorf("balance B = %s, want 0", db.Balance(addrB))
	}
	if db.GetState(addrA, slot1) != wordX {
		t.Error("slot1 not reverted")
	}
	if !db.GetState(addrA, slot2).IsZero() {
		t.Error("slot2 not deleted on revert")
	}
	if db.Nonce(addrA) != 0 {
		t.Error("nonce not reverted")
	}
	if db.IsContract(addrB) {
		t.Error("contract flag not reverted")
	}
}

func TestNestedSnapshots(t *testing.T) {
	db := New()
	db.AddBalance(addrA, big.NewInt(1))
	s1 := db.Snapshot()
	db.AddBalance(addrA, big.NewInt(10))
	s2 := db.Snapshot()
	db.AddBalance(addrA, big.NewInt(100))

	db.RevertToSnapshot(s2)
	if db.Balance(addrA).Int64() != 11 {
		t.Errorf("after inner revert: %s, want 11", db.Balance(addrA))
	}
	db.RevertToSnapshot(s1)
	if db.Balance(addrA).Int64() != 1 {
		t.Errorf("after outer revert: %s, want 1", db.Balance(addrA))
	}
}

func TestRevertFreshAccountDisappears(t *testing.T) {
	db := New()
	snap := db.Snapshot()
	db.AddBalance(addrA, big.NewInt(0)) // touch only
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
	db.SetState(addrA, slot1, wordX) // addrA's first word
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
	if prev := db.SetState(addrA, slot1, types.Hash{}); !prev.IsZero() {
		t.Errorf("prev of fresh slot = %s", prev)
	}
	digestIs(empty, "zero into a storage-less contract")

	db.SetState(addrA, slot1, wordX)
	snap := db.Snapshot()
	if prev := db.SetState(addrA, slot1, types.Hash{}); prev != wordX {
		t.Errorf("prev = %s, want %s", prev, wordX)
	}
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
	// Property: any batch of mutations is fully undone by a revert.
	f := func(amounts []uint8, slots []uint8) bool {
		db := New()
		db.AddBalance(addrA, big.NewInt(1000))
		before := db.Balance(addrA).Int64()
		snap := db.Snapshot()
		for _, a := range amounts {
			db.AddBalance(addrA, big.NewInt(int64(a)))
			db.IncNonce(addrA)
		}
		for _, s := range slots {
			db.SetState(addrA, types.Hash{s}, types.Hash{s, s})
		}
		db.RevertToSnapshot(snap)
		if db.Balance(addrA).Int64() != before || db.Nonce(addrA) != 0 {
			return false
		}
		for _, s := range slots {
			if !db.GetState(addrA, types.Hash{s}).IsZero() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A credit, a debit, a nonce increment and a storage write to an
// existing account journal typed entries: with the journal's capacity
// reused across a revert, none of them allocates, *big.Int amounts
// included.
func TestDBMutationAllocations(t *testing.T) {
	db := New()
	db.AddBalance(addrA, big.NewInt(1e18))
	db.SetState(addrA, slot1, wordX)
	amount := big.NewInt(12345)
	run := func() {
		snap := db.Snapshot()
		db.AddBalance(addrA, amount)
		if err := db.SubBalance(addrA, amount); err != nil {
			t.Fatal(err)
		}
		db.IncNonce(addrA)
		db.SetState(addrA, slot1, wordY)
		db.RevertToSnapshot(snap)
	}
	run()
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Errorf("mutate and revert allocated %.0f times, want 0", got)
	}
}
