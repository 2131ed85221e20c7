package evm_test

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/evm"
	"repro/internal/evmtest"
	"repro/internal/metrics"
	"repro/internal/secp256k1"
	"repro/internal/wallet"
)

// An isolated registry must see exactly this chain's traffic, labeled by
// outcome, with batch phases observed once per optimistic Execute call.
func TestChainOutcomeMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := evm.DefaultConfig()
	cfg.Metrics = reg
	chain := evm.NewChain(cfg)

	rich := wallet.New(secp256k1.PrivateKeyFromSeed([]byte("evm metrics rich")), chain)
	poor := wallet.New(secp256k1.PrivateKeyFromSeed([]byte("evm metrics poor")), chain)
	chain.Fund(rich.Address(), evmtest.Ether(10))
	addr, _, err := chain.Deploy(rich.Address(), newCounter())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := rich.Call(addr, "increment", wallet.CallOpts{}); err != nil {
		t.Fatalf("increment: %v", err)
	}
	if r, err := rich.Call(addr, "explode", wallet.CallOpts{}); err != nil || r.Status {
		t.Fatalf("explode: err=%v status=%v", err, r.Status)
	}
	if _, err := poor.Call(addr, "increment", wallet.CallOpts{}); err == nil {
		t.Fatal("unfunded call applied")
	}

	// One batch of two: both increment, distinct nonces.
	txs := []*evm.Transaction{
		buildIncrement(t, chain, rich.Key(), addr, chain.NonceOf(rich.Address())),
		buildIncrement(t, chain, rich.Key(), addr, chain.NonceOf(rich.Address())+1),
	}
	for i, res := range chain.Execute(txs, evm.ExecOptions{Scheduler: evm.SchedulerOptimistic, Workers: 2}) {
		if res.Err != nil || !res.Receipt.Status {
			t.Fatalf("batch tx %d: err=%v", i, res.Err)
		}
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	body := sb.String()
	for _, re := range []string{
		`(?m)^evm_txs_total\{outcome="accepted"\} 3$`,
		`(?m)^evm_txs_total\{outcome="reverted_other"\} 1$`,
		`(?m)^evm_txs_total\{outcome="rejected_insufficient_balance"\} 1$`,
		`(?m)^evm_apply_batch_size_count 1$`,
		`(?m)^evm_apply_batch_size_sum 2$`,
		`(?m)^evm_apply_batch_commit_seconds_count 1$`,
	} {
		if !regexp.MustCompile(re).MatchString(body) {
			t.Errorf("registry missing %s\n%s", re, body)
		}
	}
}
