package evm_test

import (
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"repro/internal/evm"
	"repro/internal/evmtest"
	"repro/internal/secp256k1"
	"repro/internal/types"
	"repro/internal/wallet"
)

// buildIncrement signs an increment call with an explicit nonce, bypassing
// the wallet's live nonce lookup so batches can be built ahead of commit.
func buildIncrement(t testing.TB, ch *evm.Chain, key *secp256k1.PrivateKey, to types.Address, nonce uint64) *evm.Transaction {
	t.Helper()
	tx := &evm.Transaction{
		Nonce:    nonce,
		To:       to,
		Value:    new(big.Int),
		GasLimit: wallet.DefaultGasLimit,
		GasPrice: ch.Config().Price.Wei(1),
		Method:   "increment",
	}
	if err := evm.SignTx(tx, key, ch.Config().ChainID); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestExecuteBatchMatchesSerialApply(t *testing.T) {
	env := evmtest.NewEnv(t, 3)
	addr := env.Deploy(t, newCounter())

	var txs []*evm.Transaction
	const perWallet = 3
	// Round-robin across wallets so each sender's nonces appear in order.
	for n := uint64(0); n < perWallet; n++ {
		for i := 1; i < 3; i++ {
			w := env.Wallets[i]
			txs = append(txs, buildIncrement(t, env.Chain, w.Key(), addr, env.Chain.NonceOf(w.Address())+n))
		}
	}

	heightBefore := env.Chain.Height()
	results := env.Chain.Execute(txs, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic, Workers: 4})
	if len(results) != len(txs) {
		t.Fatalf("got %d results for %d txs", len(results), len(txs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("tx %d rejected: %v", i, res.Err)
		}
		if !res.Receipt.Status {
			t.Fatalf("tx %d reverted: %v", i, res.Receipt.Err)
		}
	}
	// One block per transaction, exactly like serial Apply.
	if got, want := env.Chain.Height(), heightBefore+uint64(len(txs)); got != want {
		t.Errorf("height = %d, want %d", got, want)
	}
	r := env.MustCall(t, 1, addr, "get", wallet.CallOpts{})
	if v := r.Return[0].(uint64); v != uint64(len(txs)) {
		t.Errorf("counter = %d, want %d", v, len(txs))
	}
}

func TestExecuteBatchRejectsWithoutAborting(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())
	w := env.Wallets[1]
	nonce := env.Chain.NonceOf(w.Address())

	good1 := buildIncrement(t, env.Chain, w.Key(), addr, nonce)
	replay := buildIncrement(t, env.Chain, w.Key(), addr, nonce) // same nonce → rejected
	good2 := buildIncrement(t, env.Chain, w.Key(), addr, nonce+1)
	unsigned := &evm.Transaction{Nonce: nonce + 2, To: addr, Value: new(big.Int),
		GasLimit: wallet.DefaultGasLimit, GasPrice: env.Chain.Config().Price.Wei(1), Method: "increment"}

	results := env.Chain.Execute([]*evm.Transaction{good1, replay, good2, unsigned}, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("valid txs rejected: %v / %v", results[0].Err, results[2].Err)
	}
	if !errors.Is(results[1].Err, evm.ErrNonceTooLow) {
		t.Errorf("replay err = %v, want ErrNonceTooLow", results[1].Err)
	}
	if !errors.Is(results[3].Err, evm.ErrBadTxSignature) {
		t.Errorf("unsigned err = %v, want ErrBadTxSignature", results[3].Err)
	}
}

func TestExecuteBatchEmptyAndDefaults(t *testing.T) {
	env := evmtest.NewEnv(t, 1)
	if res := env.Chain.Execute(nil, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic}); len(res) != 0 {
		t.Errorf("empty batch returned %d results", len(res))
	}
}

// TestExecuteBatchConcurrent exercises Execute under -race: several
// goroutines submit batches from disjoint senders while others read chain
// state and submit serial Apply traffic.
func TestExecuteBatchConcurrent(t *testing.T) {
	const (
		goroutines = 4
		perSender  = 5
	)
	env := evmtest.NewEnv(t, goroutines+2)
	addr := env.Deploy(t, newCounter())

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := env.Wallets[g+1]
			base := env.Chain.NonceOf(w.Address())
			var txs []*evm.Transaction
			for n := uint64(0); n < perSender; n++ {
				txs = append(txs, buildIncrement(t, env.Chain, w.Key(), addr, base+n))
			}
			for _, res := range env.Chain.Execute(txs, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic, Workers: 2}) {
				if res.Err != nil {
					errs[g] = res.Err
					return
				}
			}
		}(g)
	}
	// Concurrent readers and serial writer traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			env.Chain.Height()
			env.Chain.Balance(env.Wallets[0].Address())
			_, _, _ = env.Chain.StaticCall(env.Wallets[0].Address(), addr, "get", nil, nil)
		}
	}()
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	r := env.MustCall(t, goroutines+1, addr, "get", wallet.CallOpts{})
	if v := r.Return[0].(uint64); v != goroutines*perSender {
		t.Errorf("counter = %d, want %d", v, goroutines*perSender)
	}
}

func TestExecuteBatchPrevalidateHookRuns(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())
	w := env.Wallets[1]
	tx := buildIncrement(t, env.Chain, w.Key(), addr, env.Chain.NonceOf(w.Address()))

	var mu sync.Mutex
	seen := 0
	env.Chain.Execute([]*evm.Transaction{tx}, evm.ExecOptions{
		Scheduler: evm.SchedulerOptimistic,
		PrevalidateBatch: func(sub []*evm.Transaction) {
			mu.Lock()
			seen += len(sub)
			mu.Unlock()
			// The hook runs outside the chain mutex: chain reads must not
			// deadlock.
			if env.Chain.Height() == 0 {
				t.Error("unexpected zero height inside hook")
			}
		},
	})
	if seen != 1 {
		t.Errorf("prevalidate hook saw %d transactions, want 1", seen)
	}
}

func ExampleChain_Execute() {
	chain := evm.NewChain(evm.DefaultConfig())
	key := secp256k1.PrivateKeyFromSeed([]byte("batch example"))
	chain.Fund(key.Address(), big.NewInt(1e18))

	var txs []*evm.Transaction
	for n := uint64(0); n < 3; n++ {
		tx := &evm.Transaction{Nonce: n, To: types.Address{0x99}, Value: big.NewInt(1),
			GasLimit: 21000, GasPrice: big.NewInt(1)}
		if err := evm.SignTx(tx, key, chain.Config().ChainID); err != nil {
			panic(err)
		}
		txs = append(txs, tx)
	}
	results := chain.Execute(txs, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic, Workers: 2})
	for i, res := range results {
		fmt.Println(i, res.Err == nil && res.Receipt.Status)
	}
	// Output:
	// 0 true
	// 1 true
	// 2 true
}
