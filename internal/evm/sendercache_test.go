package evm_test

import (
	"errors"
	"math/big"
	"testing"

	"repro/internal/evm"
	"repro/internal/secp256k1"
	"repro/internal/types"
)

func signedTestTx(t *testing.T, seed string) *evm.Transaction {
	t.Helper()
	tx := &evm.Transaction{
		Nonce:    1,
		To:       types.Address{0x42},
		Value:    big.NewInt(10),
		GasLimit: 100000,
		GasPrice: big.NewInt(1e9),
		Method:   "transfer",
		Args:     []any{types.Address{0xaa}, big.NewInt(7)},
	}
	if err := evm.SignTx(tx, secp256k1.PrivateKeyFromSeed([]byte(seed)), 1337); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestSenderMemoizedAcrossCalls(t *testing.T) {
	tx := signedTestTx(t, "memo sender")
	first, err := tx.Sender(1337)
	if err != nil {
		t.Fatal(err)
	}
	recovered0 := evm.SenderRecoveries()
	// Repeated calls hit the per-transaction memo: same address, no new
	// ecrecover.
	for i := 0; i < 3; i++ {
		again, err := tx.Sender(1337)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("memoized sender = %s, want %s", again, first)
		}
	}
	if recovered1 := evm.SenderRecoveries(); recovered1 != recovered0 {
		t.Errorf("memo path ran ecrecover: recoveries %d→%d", recovered0, recovered1)
	}
}

func TestReplacedSignatureInvalidatesMemo(t *testing.T) {
	// Re-signing the same payload with a different key keeps the digest but
	// changes the signature — the memo must not serve the stale sender.
	tx := signedTestTx(t, "key one")
	first, err := tx.Sender(1337)
	if err != nil {
		t.Fatal(err)
	}
	key2 := secp256k1.PrivateKeyFromSeed([]byte("key two"))
	if err := evm.SignTx(tx, key2, 1337); err != nil {
		t.Fatal(err)
	}
	second, err := tx.Sender(1337)
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Error("memo served the previous signer after re-signing")
	}
	if second != key2.Address() {
		t.Errorf("sender = %s, want %s", second, key2.Address())
	}
}

func TestSenderOutOfRangeScalarsError(t *testing.T) {
	// Scalars outside [1, n−1], and high s, must come back as
	// ErrBadTxSignature on every call: a rejected signature is never
	// memoized as a sender.
	curveN, _ := new(big.Int).SetString("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141", 16)
	for name, mutate := range map[string]func(*evm.Transaction){
		"zero r": func(tx *evm.Transaction) { tx.Sig.R = [32]byte{} },
		"r = n":  func(tx *evm.Transaction) { curveN.FillBytes(tx.Sig.R[:]) },
		"high s": func(tx *evm.Transaction) {
			new(big.Int).Sub(curveN, new(big.Int).SetBytes(tx.Sig.S[:])).FillBytes(tx.Sig.S[:])
		},
	} {
		tx := signedTestTx(t, "bad scalars "+name)
		mutate(tx)
		for i := 0; i < 2; i++ {
			if _, err := tx.Sender(1337); !errors.Is(err, evm.ErrBadTxSignature) {
				t.Errorf("%s: err = %v, want ErrBadTxSignature", name, err)
			}
		}
	}
}
