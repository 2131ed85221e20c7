package evm_test

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/abi"
	"repro/internal/evm"
	"repro/internal/secp256k1"
	"repro/internal/types"
)

func testTx() *evm.Transaction {
	return &evm.Transaction{
		Nonce:    3,
		To:       types.Address{0x42},
		Value:    big.NewInt(1000),
		GasLimit: 100000,
		GasPrice: big.NewInt(2e9),
		Method:   "transfer",
		Args:     []any{types.Address{0xaa}, big.NewInt(7)},
	}
}

func TestSigHashSensitivity(t *testing.T) {
	base := testTx()
	baseHash, err := base.SigHash(1337)
	if err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(*evm.Transaction){
		"nonce":    func(tx *evm.Transaction) { tx.Nonce++ },
		"to":       func(tx *evm.Transaction) { tx.To = types.Address{0x43} },
		"value":    func(tx *evm.Transaction) { tx.Value = big.NewInt(1001) },
		"gasLimit": func(tx *evm.Transaction) { tx.GasLimit++ },
		"gasPrice": func(tx *evm.Transaction) { tx.GasPrice = big.NewInt(3e9) },
		"method":   func(tx *evm.Transaction) { tx.Method = "transferX" },
		"args":     func(tx *evm.Transaction) { tx.Args = []any{types.Address{0xab}, big.NewInt(7)} },
		"tokens":   func(tx *evm.Transaction) { tx.Tokens = [][]byte{{1, 2, 3}} },
	}
	for name, mutate := range mutations {
		tx := testTx()
		mutate(tx)
		h, err := tx.SigHash(1337)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == baseHash {
			t.Errorf("mutating %s did not change the signing hash", name)
		}
	}

	// Chain id separates networks (EIP-155-style replay protection).
	h2, err := base.SigHash(1)
	if err != nil {
		t.Fatal(err)
	}
	if h2 == baseHash {
		t.Error("different chain ids share a signing hash")
	}
}

func TestAppDataVsWireData(t *testing.T) {
	tx := testTx()
	tx.Tokens = [][]byte{bytes.Repeat([]byte{0x7b}, 10)}
	app, err := tx.AppData()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := tx.WireData()
	if err != nil {
		t.Fatal(err)
	}
	// msg.data (the token-binding payload) excludes the token blob; the
	// wire data covers it.
	if !bytes.HasPrefix(wire, app) {
		t.Error("wire data does not extend app data")
	}
	if len(wire) <= len(app) {
		t.Error("token blob not appended to wire data")
	}
	sel := abi.SelectorFor("transfer(address,uint256)")
	if !bytes.Equal(app[:4], sel[:]) {
		t.Errorf("app data selector = %x, want %x", app[:4], sel[:])
	}

	// Pre-encoded calldata with spare capacity: the token blob must land in
	// a fresh buffer, never in RawData's backing array.
	tx.RawData = append(make([]byte, 0, 1024), app...)
	if _, err := tx.WireData(); err != nil {
		t.Fatal(err)
	}
	if spare := tx.RawData[len(app):cap(tx.RawData)]; !bytes.Equal(spare, make([]byte, len(spare))) {
		t.Error("WireData wrote the token blob into RawData's spare capacity")
	}
}

func TestSenderRequiresSignature(t *testing.T) {
	tx := testTx()
	if _, err := tx.Sender(1337); err == nil {
		t.Error("unsigned transaction yielded a sender")
	}
	key := secp256k1.PrivateKeyFromSeed([]byte("tx sender"))
	if err := evm.SignTx(tx, key, 1337); err != nil {
		t.Fatal(err)
	}
	sender, err := tx.Sender(1337)
	if err != nil {
		t.Fatal(err)
	}
	if sender != key.Address() {
		t.Errorf("sender = %s, want %s", sender, key.Address())
	}
	// Signed for chain 1337 — recovering under another chain id yields a
	// different (useless) address, never the signer.
	other, err := tx.Sender(1)
	if err == nil && other == key.Address() {
		t.Error("cross-chain replay recovers the original sender")
	}
}

func TestTxHashCoversSignature(t *testing.T) {
	tx := testTx()
	key := secp256k1.PrivateKeyFromSeed([]byte("tx hash"))
	if err := evm.SignTx(tx, key, 1337); err != nil {
		t.Fatal(err)
	}
	h1, err := tx.Hash(1337)
	if err != nil {
		t.Fatal(err)
	}
	key2 := secp256k1.PrivateKeyFromSeed([]byte("tx hash 2"))
	if err := evm.SignTx(tx, key2, 1337); err != nil {
		t.Fatal(err)
	}
	h2, err := tx.Hash(1337)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Error("transaction hash ignores the signature")
	}
}
