package evm_test

import (
	"math/big"
	"testing"

	"repro/internal/evm"
	"repro/internal/secp256k1"
	"repro/internal/types"
)

// benchChain builds a funded chain plus b.N pre-signed increment calls
// (signing happens outside the measured interval).
func benchChain(b *testing.B) (*evm.Chain, []*evm.Transaction) {
	b.Helper()
	// Successive chain benchmarks re-sign byte-identical transactions
	// (same key, nonces, and CREATE address), so drain the shared sender
	// cache for an honest cold-start measurement.
	evm.PurgeSenderCache()
	chain := evm.NewChain(evm.DefaultConfig())
	key := secp256k1.PrivateKeyFromSeed([]byte("chain bench"))
	chain.Fund(key.Address(), new(big.Int).Mul(big.NewInt(1e9), big.NewInt(1e18)))
	creator := secp256k1.PrivateKeyFromSeed([]byte("chain bench owner")).Address()
	addr, _, err := chain.Deploy(creator, newCounter())
	if err != nil {
		b.Fatal(err)
	}
	txs := make([]*evm.Transaction, b.N)
	for i := range txs {
		txs[i] = buildIncrement(b, chain, key, addr, uint64(i))
	}
	return chain, txs
}

func BenchmarkChainApply(b *testing.B) {
	chain, txs := benchChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for _, tx := range txs {
		r, err := chain.Apply(tx)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Status {
			b.Fatal(r.Err)
		}
	}
}

func BenchmarkChainExecute(b *testing.B) {
	chain, txs := benchChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for _, res := range chain.Execute(txs, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic, Workers: 4}) {
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

func BenchmarkSenderRecovery(b *testing.B) {
	tx := &evm.Transaction{Nonce: 1, To: types.Address{0x42}, Value: big.NewInt(1),
		GasLimit: 100000, GasPrice: big.NewInt(1e9), Method: "transfer",
		Args: []any{types.Address{0xaa}, big.NewInt(7)}}
	if err := evm.SignTx(tx, secp256k1.PrivateKeyFromSeed([]byte("bench sender")), 1337); err != nil {
		b.Fatal(err)
	}
	// cached: one transaction recovered repeatedly, the memo path.
	// uncached: the nonce is signed, so bumping it gives every call a
	// digest neither the memo nor the shared cache has seen, and the
	// signature still recovers (to an arbitrary address): the full
	// ecrecover path.
	for _, mode := range []struct {
		name   string
		cached bool
	}{{"cached", true}, {"uncached", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !mode.cached {
					tx.Nonce++
				}
				if _, err := tx.Sender(1337); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
