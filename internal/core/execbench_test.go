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
	"repro/internal/types"
	"repro/internal/wallet"
)

// guardedBlocks builds blocks of 64 guarded calls of newProtected's act
// from a fixed set of funded senders. With chains set, senders are few,
// so the block is their interleaved nonce chains and every call carries a
// fresh one-time argument token: each block misses the token-signer cache
// and contends on the bitmap. Without it every call has its own sender
// and re-presents that sender's reusable method token.
type guardedBlocks struct {
	chain  *evm.Chain
	opts   evm.ExecOptions
	keys   []*secp256k1.PrivateKey
	nonces []uint64
	tokens []core.Token // reusable tokens, by sender; nil with chains
	addr   types.Address
	chains bool
	index  int64
}

const blockTxs = 64

func newGuardedBlocks(tb testing.TB, senders int, chains bool) *guardedBlocks {
	tb.Helper()
	cfg := evm.DefaultConfig()
	g := &guardedBlocks{chain: evm.NewChain(cfg), chains: chains, nonces: make([]uint64, senders)}
	v := core.NewVerifier(tsKey.Address())
	bm, err := core.NewBitmap(1024, 100)
	if err != nil {
		tb.Fatal(err)
	}
	v.WithBitmap(bm)
	contract := newProtected(v)
	contract.SetInitialStorageWords(bm.StorageWords())
	g.keys = make([]*secp256k1.PrivateKey, senders)
	for s := range g.keys {
		g.keys[s] = secp256k1.PrivateKeyFromSeed([]byte(fmt.Sprintf("guarded block sender %d", s)))
		g.chain.Fund(g.keys[s].Address(), evmtest.Ether(1000))
	}
	if g.addr, _, err = g.chain.Deploy(g.keys[0].Address(), contract); err != nil {
		tb.Fatal(err)
	}
	g.nonces[0] = g.chain.NonceOf(g.keys[0].Address())
	g.opts = evm.ExecOptions{Scheduler: evm.SchedulerOptimistic,
		PrevalidateBatch: core.BatchTokenPrehook(tsKey.Address(), cfg.ChainID)}
	if !chains {
		data, err := buildAppData("act", uint64(0))
		if err != nil {
			tb.Fatal(err)
		}
		g.tokens = make([]core.Token, senders)
		for s, key := range g.keys {
			binding := core.Binding{Origin: key.Address(), Contract: g.addr, Data: data}
			copy(binding.Selector[:], data[:4])
			if g.tokens[s], err = core.SignToken(tsKey, core.MethodType, time.Now().Add(time.Hour), core.NotOneTime, binding); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return g
}

// block builds and signs the next block.
func (g *guardedBlocks) block(tb testing.TB) []*evm.Transaction {
	tb.Helper()
	txs := make([]*evm.Transaction, blockTxs)
	for p := range txs {
		s := p % len(g.keys)
		arg := uint64(g.index)
		data, err := buildAppData("act", arg)
		if err != nil {
			tb.Fatal(err)
		}
		var tk core.Token
		if g.chains {
			binding := core.Binding{Origin: g.keys[s].Address(), Contract: g.addr, Data: data}
			copy(binding.Selector[:], data[:4])
			if tk, err = core.SignToken(tsKey, core.ArgumentType, time.Now().Add(time.Hour), g.index, binding); err != nil {
				tb.Fatal(err)
			}
		} else {
			tk = g.tokens[s]
		}
		g.index++
		txs[p] = &evm.Transaction{Nonce: g.nonces[s], To: g.addr, Value: new(big.Int),
			GasLimit: wallet.DefaultGasLimit, GasPrice: big.NewInt(1e9), Method: "act", Args: []any{arg},
			Tokens: [][]byte{core.EncodeEntry(g.addr, tk)}}
		g.nonces[s]++
		if err := evm.SignTx(txs[p], g.keys[s], g.chain.Config().ChainID); err != nil {
			tb.Fatal(err)
		}
	}
	return txs
}

// execute runs one block and returns the heap allocations it made.
func (g *guardedBlocks) execute(tb testing.TB, txs []*evm.Transaction) (mallocs uint64) {
	tb.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	results := g.chain.Execute(txs, g.opts)
	runtime.ReadMemStats(&ms)
	for p, res := range results {
		if res.Err != nil {
			tb.Fatalf("tx %d rejected: %v", p, res.Err)
		}
		if !res.Receipt.Status {
			tb.Fatalf("tx %d reverted: %v", p, res.Receipt.Err)
		}
	}
	return ms.Mallocs - before
}

// BenchmarkExecuteGuardedBlock executes blocks of 64 guarded calls
// through the optimistic scheduler with BatchTokenPrehook, the shape of
// the repo benchmark's exec-hot workload: four senders' interleaved nonce
// chains, and every call carries a fresh one-time argument token, so each
// block misses the token-signer cache and contends on the bitmap. One op
// is one block; allocs/tx and ns/tx divide by its 64 transactions.
// Building and signing the next block runs with the timer stopped.
func BenchmarkExecuteGuardedBlock(b *testing.B) {
	g := newGuardedBlocks(b, 4, true)
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		txs := g.block(b)
		b.StartTimer()
		mallocs += g.execute(b, txs)
	}
	b.ReportMetric(float64(mallocs)/float64(b.N*blockTxs), "allocs/tx")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blockTxs), "ns/tx")
}

// TestExecuteGuardedBlockAllocations holds an optimistic Execute of a
// guarded block to a per-transaction allocation budget, in the two
// shapes of the exec workloads: one sender per call with reusable tokens,
// which runs as one conflict-free wave, and four senders' nonce chains
// with one-time tokens, where every call but the first re-executes. A
// state access, a gas charge or a fee computation that allocates again
// shows here as a few allocations per transaction.
func TestExecuteGuardedBlockAllocations(t *testing.T) {
	for _, c := range []struct {
		name    string
		senders int
		chains  bool
		budget  float64
	}{
		{"disjoint", blockTxs, false, 24},
		{"nonce chains", 4, true, 32},
	} {
		g := newGuardedBlocks(t, c.senders, c.chains)
		g.execute(t, g.block(t)) // first block: caches and maps warm up
		const blocks = 3
		var mallocs uint64
		for i := 0; i < blocks; i++ {
			mallocs += g.execute(t, g.block(t))
		}
		perTx := float64(mallocs) / (blocks * blockTxs)
		t.Logf("%s: %.1f allocs/tx", c.name, perTx)
		if perTx > c.budget {
			t.Errorf("%s: %.1f allocs per transaction, budget %.0f", c.name, perTx, c.budget)
		}
	}
}
