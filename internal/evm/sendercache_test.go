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
	hits0, misses0 := evm.SenderCacheStats()
	// Repeated calls hit the per-transaction memo: same address, no new
	// traffic on the shared cache.
	for i := 0; i < 3; i++ {
		again, err := tx.Sender(1337)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("memoized sender = %s, want %s", again, first)
		}
	}
	hits1, misses1 := evm.SenderCacheStats()
	if hits1 != hits0 || misses1 != misses0 {
		t.Errorf("memo path touched the shared cache: hits %d→%d misses %d→%d",
			hits0, hits1, misses0, misses1)
	}
}

func TestSenderSharedCacheAcrossTransactions(t *testing.T) {
	// A byte-identical re-submission (fresh Transaction value, same signed
	// content) must hit the shared LRU instead of redoing ecrecover.
	tx1 := signedTestTx(t, "shared sender")
	want, err := tx1.Sender(1337)
	if err != nil {
		t.Fatal(err)
	}
	hits0, _ := evm.SenderCacheStats()
	tx2 := signedTestTx(t, "shared sender")
	got, err := tx2.Sender(1337)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sender = %s, want %s", got, want)
	}
	hits1, _ := evm.SenderCacheStats()
	if hits1 != hits0+1 {
		t.Errorf("replayed transaction missed the shared cache (hits %d→%d)", hits0, hits1)
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
	// Scalars Signature.Bytes cannot serialize (negative, > 2^256) must come
	// back as ErrBadTxSignature — not as a FillBytes panic while building
	// the cache key.
	huge := new(big.Int).Lsh(big.NewInt(1), 300)
	for name, mutate := range map[string]func(*evm.Transaction){
		"negative r": func(tx *evm.Transaction) { tx.Sig.R = big.NewInt(-1) },
		"huge r":     func(tx *evm.Transaction) { tx.Sig.R = huge },
		"huge s":     func(tx *evm.Transaction) { tx.Sig.S = huge },
	} {
		tx := signedTestTx(t, "bad scalars "+name)
		mutate(tx)
		if _, err := tx.Sender(1337); !errors.Is(err, evm.ErrBadTxSignature) {
			t.Errorf("%s: err = %v, want ErrBadTxSignature", name, err)
		}
	}
}
