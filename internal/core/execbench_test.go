package core_test

import (
	"fmt"
	"math/big"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/evmtest"
	"repro/internal/secp256k1"
	"repro/internal/wallet"
)

// BenchmarkExecuteGuardedBlock executes blocks of 64 guarded calls
// through the optimistic scheduler with BatchTokenPrehook, the shape of
// the repo benchmark's exec-hot workload: four senders' interleaved nonce
// chains, and every call carries a fresh one-time argument token, so each
// block misses the token-signer cache and contends on the bitmap. One op
// is one block; allocs/tx and ns/tx divide by its 64 transactions.
// Building and signing the next block runs with the timer stopped.
func BenchmarkExecuteGuardedBlock(b *testing.B) {
	const blockTxs, senders = 64, 4
	cfg := evm.DefaultConfig()
	chain := evm.NewChain(cfg)
	v := core.NewVerifier(tsKey.Address())
	bm, err := core.NewBitmap(1024, 100)
	if err != nil {
		b.Fatal(err)
	}
	v.WithBitmap(bm)
	contract := newProtected(v)
	contract.SetInitialStorageWords(bm.StorageWords())
	keys := make([]*secp256k1.PrivateKey, senders)
	for s := range keys {
		keys[s] = secp256k1.PrivateKeyFromSeed([]byte(fmt.Sprintf("guarded block sender %d", s)))
		chain.Fund(keys[s].Address(), evmtest.Ether(1000))
	}
	addr, _, err := chain.Deploy(keys[0].Address(), contract)
	if err != nil {
		b.Fatal(err)
	}
	opts := evm.ExecOptions{Scheduler: evm.SchedulerOptimistic,
		PrevalidateBatch: core.BatchTokenPrehook(tsKey.Address(), cfg.ChainID)}

	nonces := make([]uint64, senders)
	nonces[0] = chain.NonceOf(keys[0].Address())
	index := int64(0)
	block := func() []*evm.Transaction {
		txs := make([]*evm.Transaction, blockTxs)
		for p := range txs {
			s := p % senders
			arg := uint64(index)
			data, err := buildAppData("act", arg)
			if err != nil {
				b.Fatal(err)
			}
			binding := core.Binding{Origin: keys[s].Address(), Contract: addr, Data: data}
			copy(binding.Selector[:], data[:4])
			tk, err := core.SignToken(tsKey, core.ArgumentType, time.Now().Add(time.Hour), index, binding)
			if err != nil {
				b.Fatal(err)
			}
			index++
			txs[p] = &evm.Transaction{Nonce: nonces[s], To: addr, Value: new(big.Int),
				GasLimit: wallet.DefaultGasLimit, GasPrice: big.NewInt(1e9), Method: "act", Args: []any{arg},
				Tokens: [][]byte{core.EncodeEntry(addr, tk)}}
			nonces[s]++
			if err := evm.SignTx(txs[p], keys[s], cfg.ChainID); err != nil {
				b.Fatal(err)
			}
		}
		return txs
	}

	var ms runtime.MemStats
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		txs := block()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		results := chain.Execute(txs, opts)
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		for p, res := range results {
			if res.Err != nil {
				b.Fatalf("tx %d rejected: %v", p, res.Err)
			}
			if !res.Receipt.Status {
				b.Fatalf("tx %d reverted: %v", p, res.Receipt.Err)
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(mallocs)/float64(b.N*blockTxs), "allocs/tx")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blockTxs), "ns/tx")
}
