package evm_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/evm"
	"repro/internal/secp256k1"
	"repro/internal/types"
)

// goldenTxs are transactions covering every shape the encoders
// distinguish: no calldata, ABI arguments of each type, RawData, 0/1/3
// token entries, a zero and a > 2⁶⁴ value, and wire payloads on both
// sides of RLP's 55/56-byte short-string boundary.
func goldenTxs() []struct {
	name string
	tx   *evm.Transaction
} {
	big70 := new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(5))
	seq := func(n int, start byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = start + byte(i)
		}
		return b
	}
	return []struct {
		name string
		tx   *evm.Transaction
	}{
		{"transfer", &evm.Transaction{Nonce: 0, To: types.Address{0x11}, Value: big.NewInt(1e18),
			GasLimit: 21000, GasPrice: big.NewInt(1e9)}},
		{"call-args", &evm.Transaction{Nonce: 7, To: types.Address{0x22, 0x33}, Value: big.NewInt(0),
			GasLimit: 300000, GasPrice: big.NewInt(2e9), Method: "register",
			Args: []any{types.Address{0xaa, 0xbb}, big.NewInt(123456789), uint64(42), true,
				[]byte("bytes argument that spans more than one word"), "a string"}}},
		{"raw", &evm.Transaction{Nonce: 1, To: types.Address{0x44}, Value: new(big.Int),
			GasLimit: 90000, GasPrice: big.NewInt(1), RawData: append([]byte{0xde, 0xad, 0xbe, 0xef}, seq(36, 1)...)}},
		{"buy-one-token", &evm.Transaction{Nonce: 3, To: types.Address{0x55}, Value: big.NewInt(1000),
			GasLimit: 500000, GasPrice: big.NewInt(1e9), Method: "buy", Args: []any{uint64(2)},
			Tokens: [][]byte{seq(86, 0x30)}}},
		{"three-tokens", &evm.Transaction{Nonce: 1 << 40, To: types.Address{0x66}, Value: big.NewInt(0),
			GasLimit: 1 << 33, GasPrice: big.NewInt(3), Method: "relay", Args: []any{[][]byte{{1}, {}, seq(40, 9)}},
			Tokens: [][]byte{{0x7f}, {}, seq(97, 0x80)}}},
		{"big-value", &evm.Transaction{Nonce: 9, To: types.Address{0x77}, Value: big70,
			GasLimit: 100000, GasPrice: new(big.Int).Lsh(big.NewInt(3), 64), Method: "deposit"}},
		{"raw-55", &evm.Transaction{Nonce: 2, To: types.Address{0x88}, Value: big.NewInt(5),
			GasLimit: 60000, GasPrice: big.NewInt(1e9), RawData: seq(55, 0x10)}},
		{"raw-56", &evm.Transaction{Nonce: 2, To: types.Address{0x88}, Value: big.NewInt(5),
			GasLimit: 60000, GasPrice: big.NewInt(1e9), RawData: seq(56, 0x10)}},
	}
}

// TestTxEncodingGolden pins the bytes of WireData, SigHash, Hash and
// EncodeCommit: every encoder rewrite must leave testdata/tx_golden.txt
// byte-identical.
func TestTxEncodingGolden(t *testing.T) {
	const chainID = 1337
	key := secp256k1.PrivateKeyFromSeed([]byte("golden tx signer"))
	blockTime := time.Unix(1700000000, 123456789)
	var got strings.Builder
	for _, g := range goldenTxs() {
		if err := evm.SignTx(g.tx, key, chainID); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		wire, err := g.tx.WireData()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		sigHash, err := g.tx.SigHash(chainID)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		hash, err := g.tx.Hash(chainID)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		commit, err := evm.EncodeCommit(g.tx, blockTime)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		fmt.Fprintf(&got, "## %s\nwire %x\nsighash %x\nhash %x\ncommit %x\n",
			g.name, wire, sigHash[:], hash[:], commit)
	}
	want, err := os.ReadFile("testdata/tx_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript has %d lines, golden file %d", len(gl), len(wl))
	}
	// The file must hold what it claims: every commit decodes back to a
	// transaction with the same wire bytes.
	for _, g := range goldenTxs() {
		if err := evm.SignTx(g.tx, key, chainID); err != nil {
			t.Fatal(err)
		}
		commit, _ := evm.EncodeCommit(g.tx, blockTime)
		back, _, err := evm.DecodeCommit(commit)
		if err != nil {
			t.Fatalf("%s: decode commit: %v", g.name, err)
		}
		w1, _ := g.tx.WireData()
		w2, _ := back.WireData()
		if !bytes.Equal(w1, w2) {
			t.Errorf("%s: decoded commit wire %s, want %s", g.name, hex.EncodeToString(w2), hex.EncodeToString(w1))
		}
	}
}
