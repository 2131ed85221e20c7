package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/evm"
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
