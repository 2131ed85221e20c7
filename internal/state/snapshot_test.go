package state

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/types"
)

func addr(b byte) types.Address { return types.BytesToAddress([]byte{b}) }
func slot(b byte) types.Hash    { return types.BytesToHash([]byte{b}) }

func populated() *DB {
	db := New()
	commit(db, func(v *View) {
		v.AddBalance(addr(1), big.NewInt(1_000_000))
		v.AddBalance(addr(2), big.NewInt(42))
		v.IncNonce(addr(1))
		v.IncNonce(addr(1))
		v.MarkContract(addr(3))
		v.SetState(addr(3), slot(0), slot(7))
		v.SetState(addr(3), slot(5), types.Hash{}) // a zero word is an absent slot
		v.SetState(addr(4), slot(9), slot(9))
	})
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := populated()
	enc, err := db.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Balance(addr(1)).Cmp(big.NewInt(1_000_000)) != 0 {
		t.Errorf("balance(1) = %s", got.Balance(addr(1)))
	}
	if got.Nonce(addr(1)) != 2 {
		t.Errorf("nonce(1) = %d", got.Nonce(addr(1)))
	}
	if !got.IsContract(addr(3)) || got.IsContract(addr(2)) {
		t.Error("contract flags lost")
	}
	if got.GetState(addr(3), slot(0)) != slot(7) {
		t.Error("storage word lost")
	}
	if got.StorageWords(addr(3)) != 1 {
		t.Errorf("StorageWords(3) = %d, want 1 (a zero word is an absent slot)", got.StorageWords(addr(3)))
	}
	if !got.Exists(addr(2)) {
		t.Error("touched account lost")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	// Two DBs with the same content but different construction order must
	// encode byte-identically, and re-encoding a decoded snapshot must be
	// a fixed point.
	a := populated()
	b := New()
	for _, f := range []func(v *View){
		func(v *View) { v.SetState(addr(4), slot(9), slot(9)) },
		func(v *View) { v.MarkContract(addr(3)) },
		func(v *View) { v.SetState(addr(3), slot(5), types.Hash{}) },
		func(v *View) { v.SetState(addr(3), slot(0), slot(7)) },
		func(v *View) { v.AddBalance(addr(2), big.NewInt(42)) },
		func(v *View) { v.IncNonce(addr(1)) },
		func(v *View) { v.AddBalance(addr(1), big.NewInt(1_000_000)) },
		func(v *View) { v.IncNonce(addr(1)) },
	} {
		commit(b, f)
	}

	encA, err := a.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	encB, err := b.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encA, encB) {
		t.Error("equal states encoded differently")
	}
	dec, err := DecodeSnapshot(encA)
	if err != nil {
		t.Fatal(err)
	}
	encC, err := dec.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encA, encC) {
		t.Error("re-encoding a decoded snapshot changed the bytes")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("not rlp")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := DecodeSnapshot(nil); err == nil {
		t.Error("empty snapshot accepted")
	}
}
