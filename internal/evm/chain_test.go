package evm_test

import (
	"errors"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/evm"
	"repro/internal/evmtest"
	"repro/internal/gas"
	"repro/internal/types"
	"repro/internal/wallet"
)

// newCounter builds a minimal contract with a public increment method, an
// external-only method, an internal helper, and a payable deposit.
func newCounter() *evm.Contract {
	c := evm.NewContract("Counter")
	c.MustAddMethod(evm.Method{
		Name:       "increment",
		Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			v, err := call.LoadUint(gas.CatApp, evm.SlotN(0))
			if err != nil {
				return nil, err
			}
			if err := call.StoreUint(gas.CatApp, evm.SlotN(0), v+1); err != nil {
				return nil, err
			}
			return []any{v + 1}, nil
		},
	})
	c.MustAddMethod(evm.Method{
		Name:       "get",
		Visibility: evm.External,
		Handler: func(call *evm.Call) ([]any, error) {
			v, err := call.LoadUint(gas.CatApp, evm.SlotN(0))
			if err != nil {
				return nil, err
			}
			return []any{v}, nil
		},
	})
	c.MustAddMethod(evm.Method{
		Name:       "bumpBy",
		Params:     []any{uint64(0)},
		Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			n, _ := call.Arg(0).(uint64)
			for i := uint64(0); i < n; i++ {
				if _, err := call.Invoke("increment"); err != nil {
					return nil, err
				}
			}
			return nil, nil
		},
	})
	c.MustAddMethod(evm.Method{
		Name:       "secret",
		Visibility: evm.Internal,
		Handler: func(call *evm.Call) ([]any, error) {
			return []any{uint64(42)}, nil
		},
	})
	c.MustAddMethod(evm.Method{
		Name:       "deposit",
		Visibility: evm.Public,
		Payable:    true,
		Handler: func(call *evm.Call) ([]any, error) {
			return nil, nil
		},
	})
	c.MustAddMethod(evm.Method{
		Name:       "explode",
		Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			if err := call.StoreUint(gas.CatApp, evm.SlotN(0), 999); err != nil {
				return nil, err
			}
			return nil, errors.New("boom")
		},
	})
	return c
}

func TestDeployAndCall(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())

	if !env.Chain.Balance(addr).IsInt64() {
		t.Fatal("contract balance unreadable")
	}
	r := env.MustCall(t, 1, addr, "increment", wallet.CallOpts{})
	if got := r.Return[0].(uint64); got != 1 {
		t.Errorf("increment returned %d, want 1", got)
	}
	r = env.MustCall(t, 1, addr, "increment", wallet.CallOpts{})
	if got := r.Return[0].(uint64); got != 2 {
		t.Errorf("second increment returned %d, want 2", got)
	}
	if r.GasUsed == 0 || r.FeeUSD <= 0 {
		t.Error("receipt missing gas accounting")
	}
}

func TestDeployAddressDeterministic(t *testing.T) {
	env1 := evmtest.NewEnv(t, 1)
	env2 := evmtest.NewEnv(t, 1)
	a1 := env1.Deploy(t, newCounter())
	a2 := env2.Deploy(t, newCounter())
	if a1 != a2 {
		t.Errorf("same creator+nonce gave different addresses: %s vs %s", a1, a2)
	}
	// A second deploy from the same creator gets a different address.
	a3 := env1.Deploy(t, newCounter())
	if a3 == a1 {
		t.Error("consecutive deploys reused an address")
	}
}

func TestNonceReplayProtection(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())

	tx, err := env.Wallets[1].BuildTx(addr, "increment", wallet.CallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Chain.Apply(tx); err != nil {
		t.Fatal(err)
	}
	// Replaying the identical signed transaction must be rejected.
	_, err = env.Chain.Apply(tx)
	if !errors.Is(err, evm.ErrNonceTooLow) {
		t.Errorf("replay err = %v, want ErrNonceTooLow", err)
	}
	if want := fmt.Sprintf("%v: tx nonce %d, account nonce %d", evm.ErrNonceTooLow, tx.Nonce, tx.Nonce+1); err.Error() != want {
		t.Errorf("replay err text %q, want %q", err, want)
	}
	// A future nonce is also rejected.
	tx2, err := env.Wallets[1].BuildTx(addr, "increment", wallet.CallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	tx2.Nonce += 5
	_ = evm.SignTx(tx2, env.Wallets[1].Key(), env.Chain.Config().ChainID)
	_, err = env.Chain.Apply(tx2)
	if !errors.Is(err, evm.ErrNonceTooHigh) {
		t.Errorf("future nonce err = %v, want ErrNonceTooHigh", err)
	}
	if want := fmt.Sprintf("%v: tx nonce %d, account nonce %d", evm.ErrNonceTooHigh, tx2.Nonce, tx2.Nonce-5); err.Error() != want {
		t.Errorf("future nonce err text %q, want %q", err, want)
	}
}

func TestTamperedTransactionChangesSender(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())

	tx, err := env.Wallets[1].BuildTx(addr, "deposit", wallet.CallOpts{Value: big.NewInt(5)})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := tx.Sender(env.Chain.Config().ChainID)
	if err != nil {
		t.Fatal(err)
	}
	tx.Value = big.NewInt(500) // tamper after signing
	got, err := tx.Sender(env.Chain.Config().ChainID)
	if err == nil && got == orig {
		t.Error("tampering did not change the recovered sender")
	}
}

func TestRevertRollsBackState(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())
	env.MustCall(t, 1, addr, "increment", wallet.CallOpts{})

	r := env.CallExpectRevert(t, 1, addr, "explode", wallet.CallOpts{})
	if r.Err == nil {
		t.Fatal("revert receipt has no error")
	}
	// The explode handler wrote 999 before failing; the write must be gone.
	got := env.MustCall(t, 1, addr, "get", wallet.CallOpts{})
	if v := got.Return[0].(uint64); v != 1 {
		t.Errorf("counter = %d after revert, want 1", v)
	}
	// Gas for the failed attempt is still charged.
	if r.GasUsed == 0 {
		t.Error("failed call consumed no gas")
	}
}

func TestPayableEnforcement(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())

	r := env.CallExpectRevert(t, 1, addr, "increment", wallet.CallOpts{Value: big.NewInt(1)})
	if !errors.Is(r.Err, evm.ErrNotPayable) {
		t.Errorf("err = %v, want ErrNotPayable", r.Err)
	}

	before := env.Chain.Balance(addr)
	env.MustCall(t, 1, addr, "deposit", wallet.CallOpts{Value: big.NewInt(77)})
	after := env.Chain.Balance(addr)
	if new(big.Int).Sub(after, before).Int64() != 77 {
		t.Errorf("deposit did not move value: %s -> %s", before, after)
	}
}

func TestGasAccountingBalances(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())
	w := env.Wallets[1]

	before := env.Chain.Balance(w.Address())
	r := env.MustCall(t, 1, addr, "deposit", wallet.CallOpts{Value: big.NewInt(10)})
	after := env.Chain.Balance(w.Address())

	fee := new(big.Int).Mul(env.Chain.Config().Price.Wei(1), new(big.Int).SetUint64(r.GasUsed))
	wantSpend := new(big.Int).Add(fee, big.NewInt(10))
	if got := new(big.Int).Sub(before, after); got.Cmp(wantSpend) != 0 {
		t.Errorf("spent %s, want %s (gas %d)", got, wantSpend, r.GasUsed)
	}
}

func TestInternalMethodNotDispatchable(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())
	r, err := env.Wallets[1].Call(addr, "secret", wallet.CallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status || !errors.Is(r.Err, evm.ErrUnknownMethod) {
		t.Errorf("internal method dispatched externally: %+v", r)
	}
}

func TestInvokeRunsInternalMethods(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())
	env.MustCall(t, 1, addr, "bumpBy", wallet.CallOpts{}, uint64(5))
	got := env.MustCall(t, 1, addr, "get", wallet.CallOpts{})
	if v := got.Return[0].(uint64); v != 5 {
		t.Errorf("counter = %d, want 5", v)
	}
}

func TestPlainTransfer(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	to := env.Wallets[1].Address()
	before := env.Chain.Balance(to)
	r, err := env.Wallets[0].Transfer(to, big.NewInt(12345))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Status || r.GasUsed != gas.TxBase {
		t.Errorf("transfer receipt: status=%v gas=%d", r.Status, r.GasUsed)
	}
	if got := new(big.Int).Sub(env.Chain.Balance(to), before); got.Int64() != 12345 {
		t.Errorf("received %s, want 12345", got)
	}
}

func TestStaticCallDoesNotPersist(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())
	h := env.Chain.Height()

	ret, r, err := env.Chain.StaticCall(env.Wallets[1].Address(), addr, "increment", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret[0].(uint64) != 1 || !r.Status {
		t.Fatalf("static call result: %v", ret)
	}
	if env.Chain.Height() != h {
		t.Error("static call mined a block")
	}
	got := env.MustCall(t, 1, addr, "get", wallet.CallOpts{})
	if v := got.Return[0].(uint64); v != 0 {
		t.Errorf("static call persisted state: counter = %d", v)
	}
}

func TestOutOfGasFailsExecution(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())
	r, err := env.Wallets[1].Call(addr, "increment", wallet.CallOpts{GasLimit: 23000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status || !errors.Is(r.Err, gas.ErrOutOfGas) {
		t.Errorf("status=%v err=%v, want out-of-gas revert", r.Status, r.Err)
	}
	if r.GasUsed != 23000 {
		t.Errorf("out-of-gas consumed %d, want full limit", r.GasUsed)
	}
}

func TestIntrinsicGasRejected(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())
	_, err := env.Wallets[1].Call(addr, "increment", wallet.CallOpts{GasLimit: 20000})
	if !errors.Is(err, evm.ErrIntrinsicGas) {
		t.Errorf("err = %v, want ErrIntrinsicGas", err)
	}
}

func TestUnknownContract(t *testing.T) {
	env := evmtest.NewEnv(t, 1)
	bogus := types.Address{0xff}
	r, err := env.Wallets[0].Call(bogus, "increment", wallet.CallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status || !errors.Is(r.Err, evm.ErrContractNotFound) {
		t.Errorf("call to empty address: status=%v err=%v", r.Status, r.Err)
	}
}

func TestReorgRestoresState(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())
	env.MustCall(t, 1, addr, "increment", wallet.CallOpts{})
	heightAfterOne := env.Chain.Height()
	nonceAfterOne := env.Chain.NonceOf(env.Wallets[1].Address())

	env.MustCall(t, 1, addr, "increment", wallet.CallOpts{})
	env.MustCall(t, 1, addr, "increment", wallet.CallOpts{})

	if err := env.Chain.Reorg(heightAfterOne); err != nil {
		t.Fatal(err)
	}
	if env.Chain.Height() != heightAfterOne {
		t.Errorf("height = %d, want %d", env.Chain.Height(), heightAfterOne)
	}
	if got := env.Chain.NonceOf(env.Wallets[1].Address()); got != nonceAfterOne {
		t.Errorf("nonce = %d, want %d", got, nonceAfterOne)
	}
	got := env.MustCall(t, 1, addr, "get", wallet.CallOpts{})
	if v := got.Return[0].(uint64); v != 1 {
		t.Errorf("counter = %d after reorg, want 1", v)
	}
}

func TestReorgRemovesLaterContracts(t *testing.T) {
	env := evmtest.NewEnv(t, 1)
	h := env.Chain.Height()
	addr := env.Deploy(t, newCounter())
	if err := env.Chain.Reorg(h); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Chain.ContractAt(addr); ok {
		t.Error("contract survived the reorg")
	}
	if err := env.Chain.Reorg(99); !errors.Is(err, evm.ErrBadReorg) {
		t.Error("reorg to future height accepted")
	}
}

func TestTraceRecordsEvents(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())
	r := env.MustCall(t, 1, addr, "increment", wallet.CallOpts{})

	kinds := make(map[evm.TraceEventKind]int)
	for _, e := range r.Trace.Events {
		kinds[e.Kind]++
	}
	if kinds[evm.TraceCall] == 0 || kinds[evm.TraceReturn] == 0 ||
		kinds[evm.TraceSLoad] == 0 || kinds[evm.TraceSStore] == 0 {
		t.Errorf("trace incomplete: %v", kinds)
	}
	if len(r.Trace.CallsTo(addr)) == 0 {
		t.Error("CallsTo found no calls")
	}
}

func TestGasByCategoryPresent(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newCounter())
	r := env.MustCall(t, 1, addr, "increment", wallet.CallOpts{})
	if r.GasByCategory[gas.CatIntrinsic] < gas.TxBase {
		t.Errorf("intrinsic = %d, want ≥ %d", r.GasByCategory[gas.CatIntrinsic], gas.TxBase)
	}
	if r.GasByCategory[gas.CatApp] == 0 {
		t.Error("app category empty")
	}
	var sum uint64
	for _, v := range r.GasByCategory {
		sum += v
	}
	if sum != r.GasUsed {
		t.Errorf("category sum %d != gas used %d", sum, r.GasUsed)
	}
}
