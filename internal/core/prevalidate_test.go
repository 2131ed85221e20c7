package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/secp256k1"
	"repro/internal/types"
	"repro/internal/wallet"
)

func TestBatchTokenPrehookWarmsVerificationCache(t *testing.T) {
	f := newFixture(t, 0)
	opts := f.issue(t, core.MethodType, core.NotOneTime, 1, "act", uint64(0))
	w := f.env.Wallets[1]
	tx, err := w.BuildTx(f.addr, "act", opts, uint64(5))
	if err != nil {
		t.Fatal(err)
	}

	cfg := f.env.Chain.Config()
	hook := core.BatchTokenPrehook(tsKey.Address(), cfg.ChainID)
	hits0, misses0 := core.TokenSigCacheStats()
	results := f.env.Chain.Execute([]*evm.Transaction{tx}, evm.ExecOptions{
		Scheduler:        evm.SchedulerOptimistic,
		Workers:          2,
		PrevalidateBatch: hook,
	})
	if results[0].Err != nil {
		t.Fatalf("batch rejected: %v", results[0].Err)
	}
	if !results[0].Receipt.Status {
		t.Fatalf("guarded call reverted: %v", results[0].Receipt.Err)
	}
	hits1, misses1 := core.TokenSigCacheStats()
	// The prehook's recovery misses (cold) and the on-chain verification
	// then hits the warmed entry.
	if misses1 == misses0 {
		t.Error("prehook never touched the token signer cache")
	}
	if hits1 == hits0 {
		t.Error("on-chain verification did not reuse the prevalidated signer")
	}

	// The hook is best-effort: token-less and malformed-token transactions
	// must not panic or reject ahead of the authoritative checks.
	plain, err := w.BuildTx(f.addr, "act", wallet.CallOpts{}, uint64(5))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := w.BuildTx(f.addr, "act", opts, uint64(5))
	if err != nil {
		t.Fatal(err)
	}
	bad.Tokens = [][]byte{{0x01, 0x02}}
	hook([]*evm.Transaction{plain, bad})
}

// prehookTx signs an argument token for act(arg) bound to wallet client,
// lets mutate tamper with it, and builds the call at the given nonce.
func prehookTx(t testing.TB, f *fixture, signer *secp256k1.PrivateKey, client int, nonce, boundArg, arg uint64, mutate func(*core.Token)) *evm.Transaction {
	t.Helper()
	w := f.env.Wallets[client]
	data, err := buildAppData("act", boundArg)
	if err != nil {
		t.Fatal(err)
	}
	binding := core.Binding{Origin: w.Address(), Contract: f.addr, Data: data}
	copy(binding.Selector[:], data[:4])
	tk, err := core.SignToken(signer, core.ArgumentType, f.env.Clock.Now().Add(time.Hour), core.NotOneTime, binding)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(&tk)
	}
	tx, err := w.BuildTx(f.addr, "act", wallet.WithTokens(wallet.TokenEntry{Contract: f.addr, Token: tk}), arg)
	if err != nil {
		t.Fatal(err)
	}
	tx.Nonce = nonce
	if err := evm.SignTx(tx, w.Key(), f.env.Chain.Config().ChainID); err != nil {
		t.Fatal(err)
	}
	return tx
}

// runPrehookBlocks executes, on a fresh chain and a purged token-signer
// cache, a block of one valid token (from which a known-signer hook
// learns the Token Service key) and then a mixed block over two
// prevalidation sub-batches: the first all fresh valid tokens, the second
// valid tokens among a foreign-signed token, a tampered binding, a
// wrong-v signature and an overflowed-r signature (v = 2, which ParseToken
// already rejects as malformed). It returns one line
// per transaction (rejection, status, revert error, gas by category) and
// the final state digest.
func runPrehookBlocks(t *testing.T, hook func(chainID uint64) func([]*evm.Transaction)) []string {
	t.Helper()
	core.PurgeTokenSigCache()
	f := newFixture(t, 0)
	foreign := secp256k1.PrivateKeyFromSeed([]byte("foreign ts"))
	wrongV := func(tk *core.Token) { tk.Signature.V ^= 1 }
	overflowR := func(tk *core.Token) { tk.Signature.V |= 2 }
	blocks := [][]*evm.Transaction{
		{prehookTx(t, f, tsKey, 1, 0, 1, 1, nil)},
		{
			prehookTx(t, f, tsKey, 1, 1, 10, 10, nil),
			prehookTx(t, f, tsKey, 2, 0, 11, 11, nil),
			prehookTx(t, f, tsKey, 1, 2, 12, 12, nil),
			prehookTx(t, f, tsKey, 2, 1, 13, 13, nil),
			prehookTx(t, f, tsKey, 1, 3, 14, 14, nil),
			prehookTx(t, f, tsKey, 2, 2, 15, 15, nil),

			prehookTx(t, f, tsKey, 1, 4, 20, 20, nil),
			prehookTx(t, f, foreign, 2, 3, 21, 21, nil),
			prehookTx(t, f, tsKey, 1, 5, 22, 23, nil), // bound to 22, called with 23
			prehookTx(t, f, tsKey, 2, 4, 24, 24, wrongV),
			prehookTx(t, f, tsKey, 1, 6, 25, 25, overflowR),
			prehookTx(t, f, tsKey, 2, 5, 26, 26, nil),
		},
	}
	var opts evm.ExecOptions
	opts.Scheduler, opts.Workers = evm.SchedulerOptimistic, 2
	if hook != nil {
		opts.PrevalidateBatch = hook(f.env.Chain.Config().ChainID)
	}
	var lines []string
	for _, txs := range blocks {
		for i, res := range f.env.Chain.Execute(txs, opts) {
			if res.Err != nil {
				lines = append(lines, fmt.Sprintf("tx %d rejected: %v", i, res.Err))
				continue
			}
			r := res.Receipt
			lines = append(lines, fmt.Sprintf("tx %d status=%v err=%v gas=%d %v", i, r.Status, r.Err, r.GasUsed, r.GasByCategory))
		}
	}
	digest, err := f.env.Chain.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	return append(lines, digest.Hex())
}

// TestBatchTokenPrehookEquivalence holds the known-signer prehook to two
// oracles: a cold cache (no prehook) and the recover-only prehook. Every
// transaction's verification error, gas and receipt, and the final state,
// must be identical across the three.
func TestBatchTokenPrehookEquivalence(t *testing.T) {
	cold := runPrehookBlocks(t, nil)
	recoverOnly := runPrehookBlocks(t, core.RecoverOnlyTokenPrehook)
	knownSigner := runPrehookBlocks(t, func(chainID uint64) func([]*evm.Transaction) {
		return core.BatchTokenPrehook(tsKey.Address(), chainID)
	})
	for name, got := range map[string][]string{"recover-only": recoverOnly, "known-signer": knownSigner} {
		if len(got) != len(cold) {
			t.Fatalf("%s: %d lines, cold cache %d", name, len(got), len(cold))
		}
		for i := range cold {
			if got[i] != cold[i] {
				t.Errorf("%s differs from cold cache:\n got  %s\n want %s", name, got[i], cold[i])
			}
		}
	}
	// The mixed block must really hold every outcome class the prehook
	// has to leave alone.
	var ok, badSig, malformed int
	for _, line := range cold {
		switch {
		case strings.Contains(line, "status=true"):
			ok++
		case strings.Contains(line, core.ErrBadTokenSig.Error()):
			badSig++
		case strings.Contains(line, core.ErrMalformedToken.Error()):
			malformed++
		}
	}
	if ok != 9 || badSig != 3 || malformed != 1 {
		t.Errorf("cold cache: %d ok, %d bad signature, %d malformed; want 9, 3, 1\n%s", ok, badSig, malformed, strings.Join(cold, "\n"))
	}
}

// TestBatchTokenPrehookConcurrentLearn lets disjoint sub-batches race on
// one hook: first to learn the Token Service key, then through the shared
// known-signer check. Every token must end up cached as signed by the
// Token Service, so executing all of them afterwards hits the cache every
// time. Run with -race.
func TestBatchTokenPrehookConcurrentLearn(t *testing.T) {
	core.PurgeTokenSigCache()
	f := newFixture(t, 0)
	const perWallet, subBatch = 8, 2
	var txs []*evm.Transaction
	for n := uint64(0); n < perWallet; n++ {
		for client := 0; client < len(f.env.Wallets); client++ {
			arg := 100*uint64(client) + n
			nonce := f.env.Chain.NonceOf(f.env.Wallets[client].Address()) + n
			txs = append(txs, prehookTx(t, f, tsKey, client, nonce, arg, arg, nil))
		}
	}
	hook := core.BatchTokenPrehook(tsKey.Address(), f.env.Chain.Config().ChainID)
	half := len(txs) / 2
	for _, round := range [][]*evm.Transaction{txs[:half], txs[half:]} {
		var wg sync.WaitGroup
		for off := 0; off < len(round); off += subBatch {
			wg.Add(1)
			go func(sub []*evm.Transaction) {
				defer wg.Done()
				hook(sub)
			}(round[off : off+subBatch])
		}
		wg.Wait()
	}
	hits0, _ := core.TokenSigCacheStats()
	for i, res := range f.env.Chain.Execute(txs, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic, Workers: 2}) {
		if res.Err != nil || !res.Receipt.Status {
			t.Fatalf("tx %d: rejected %v, receipt %+v", i, res.Err, res.Receipt)
		}
	}
	if hits1, _ := core.TokenSigCacheStats(); hits1-hits0 != uint64(len(txs)) {
		t.Errorf("%d token cache hits executing %d prevalidated txs", hits1-hits0, len(txs))
	}
}

// BenchmarkBatchTokenPrehook measures one prevalidation sub-batch of 32
// fresh Token Service tokens (the cache purged, outside the timer, before
// every call), through the known-signer hook and through the recover-only
// path it replaces. Sender recovery is memoized on the transactions and
// not measured.
func BenchmarkBatchTokenPrehook(b *testing.B) {
	const n = 32
	chainID := evm.DefaultConfig().ChainID
	contract := types.Address{0x01}
	data, err := buildAppData("act", uint64(0))
	if err != nil {
		b.Fatal(err)
	}
	txs := make([]*evm.Transaction, n)
	for i := range txs {
		client := secp256k1.PrivateKeyFromSeed([]byte(fmt.Sprintf("prehook bench client %d", i)))
		binding := core.Binding{Origin: client.Address(), Contract: contract, Data: data}
		copy(binding.Selector[:], data[:4])
		tk, err := core.SignToken(tsKey, core.ArgumentType, time.Now().Add(time.Hour), int64(i), binding)
		if err != nil {
			b.Fatal(err)
		}
		txs[i] = &evm.Transaction{To: contract, GasLimit: wallet.DefaultGasLimit, Method: "act",
			Args: []any{uint64(0)}, Tokens: [][]byte{core.EncodeEntry(contract, tk)}}
		if err := evm.SignTx(txs[i], client, chainID); err != nil {
			b.Fatal(err)
		}
	}
	for _, h := range []struct {
		name string
		hook func([]*evm.Transaction)
	}{
		{"known-signer", core.BatchTokenPrehook(tsKey.Address(), chainID)},
		{"recover-only", core.RecoverOnlyTokenPrehook(chainID)},
	} {
		h.hook(txs) // learn the key, memoize the senders
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				core.PurgeTokenSigCache()
				b.StartTimer()
				h.hook(txs)
			}
		})
	}
}
