package evm_test

import (
	"math/big"
	"testing"
	"time"

	"repro/internal/evm"
	"repro/internal/secp256k1"
	"repro/internal/types"
)

// guardedBuyTx is the shape of one guarded transaction on the hot
// execution path: buy(address,uint256) carrying one 106-byte token entry
// (contract address ‖ 86-byte token).
func guardedBuyTx(t testing.TB) *evm.Transaction {
	t.Helper()
	entry := make([]byte, 106)
	for i := range entry {
		entry[i] = byte(i*7 + 1)
	}
	tx := &evm.Transaction{Nonce: 12, To: types.Address{0x5a}, Value: new(big.Int),
		GasLimit: 500000, GasPrice: big.NewInt(1e9), Method: "buy",
		Args:   []any{types.Address{0xc1, 0xc2}, big.NewInt(3)},
		Tokens: [][]byte{entry}}
	if err := evm.SignTx(tx, secp256k1.PrivateKeyFromSeed([]byte("alloc budget")), 1337); err != nil {
		t.Fatal(err)
	}
	return tx
}

// TestTxEncodingAllocations holds the exported encoders to their
// allocation budget: the ABI and RLP encoders append into one buffer
// sized up front, so what remains is that buffer and the *big.Int
// boundary, not a temporary per word and length prefix.
func TestTxEncodingAllocations(t *testing.T) {
	tx := guardedBuyTx(t)
	at := time.Unix(1700000000, 0)
	cases := []struct {
		name string
		max  float64
		run  func()
	}{
		{"WireData", 6, func() { _, _ = tx.WireData() }},
		{"SigHash", 8, func() { _, _ = tx.SigHash(1337) }},
		{"Hash", 8, func() { _, _ = tx.Hash(1337) }},
		{"EncodeCommit", 6, func() { _, _ = evm.EncodeCommit(tx, at) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(50, c.run); got > c.max {
			t.Errorf("%s: %.0f allocs per call, budget %.0f", c.name, got, c.max)
		}
	}
}
