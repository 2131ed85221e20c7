package evm_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/evm"
	"repro/internal/evmtest"
	"repro/internal/secp256k1"
)

var bothSchedulers = []evm.ExecOptions{
	{Scheduler: evm.SchedulerSerial},
	{Scheduler: evm.SchedulerOptimistic, Workers: 2},
}

// TestExecuteRebuildsPreparedRecord holds Execute's per-call encoding
// record to its contract: it never outlives the call, so a transaction
// changed between calls is re-encoded and its sender recovered afresh,
// and transactions whose signature cannot even be serialized get the same
// per-item errors under both schedulers.
func TestExecuteRebuildsPreparedRecord(t *testing.T) {
	t.Run("tampered between calls", func(t *testing.T) {
		for _, opts := range bothSchedulers {
			env := evmtest.NewEnv(t, 1)
			addr := env.Deploy(t, newCounter())
			// An unfunded signer: the rejection names the recovered sender.
			key := secp256k1.PrivateKeyFromSeed([]byte("unfunded signer"))
			tx := buildIncrement(t, env.Chain, key, addr, 0)
			first := env.Chain.Execute([]*evm.Transaction{tx}, opts)[0].Err
			if !errors.Is(first, evm.ErrInsufficientETH) || !strings.Contains(first.Error(), key.Address().String()) {
				t.Fatalf("%v: first call err = %v, want ErrInsufficientETH naming %s", opts.Scheduler, first, key.Address())
			}
			tx.Value = big.NewInt(1)
			forged, err := tx.Sender(env.Chain.Config().ChainID)
			if err != nil {
				t.Fatal(err)
			}
			if forged == key.Address() {
				t.Fatal("tampering kept the signer")
			}
			second := env.Chain.Execute([]*evm.Transaction{tx}, opts)[0].Err
			if !errors.Is(second, evm.ErrInsufficientETH) || !strings.Contains(second.Error(), forged.String()) {
				t.Errorf("%v: second call err = %v, want ErrInsufficientETH naming %s", opts.Scheduler, second, forged)
			}
		}
	})

	t.Run("mutated after the call", func(t *testing.T) {
		for _, opts := range bothSchedulers {
			env := evmtest.NewEnv(t, 2)
			addr := env.Deploy(t, newCounter())
			key := env.Wallets[1].Key()
			tx := buildIncrement(t, env.Chain, key, addr, 0)
			if res := env.Chain.Execute([]*evm.Transaction{tx}, opts)[0]; res.Err != nil || !res.Receipt.Status {
				t.Fatalf("%v: %+v", opts.Scheduler, res)
			}
			before, err := tx.AppData()
			if err != nil {
				t.Fatal(err)
			}
			tx.Method = "get"
			after, err := tx.AppData()
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(before, after) {
				t.Errorf("%v: AppData still %x after the method changed", opts.Scheduler, after)
			}
			sender, err := tx.Sender(env.Chain.Config().ChainID)
			if err != nil {
				t.Fatal(err)
			}
			if sender == key.Address() {
				t.Errorf("%v: Sender still recovers the signer after the calldata changed", opts.Scheduler)
			}
		}
	})

	t.Run("invalid signatures", func(t *testing.T) {
		var got []string
		for _, opts := range bothSchedulers {
			env := evmtest.NewEnv(t, 3)
			addr := env.Deploy(t, newCounter())
			w1, w2 := env.Wallets[1].Key(), env.Wallets[2].Key()
			unsigned := buildIncrement(t, env.Chain, w1, addr, 1)
			unsigned.Sig = secp256k1.Signature{}
			zeroR := buildIncrement(t, env.Chain, w2, addr, 1)
			zeroR.Sig.R = [32]byte{}
			maxS := buildIncrement(t, env.Chain, w2, addr, 1)
			maxS.Sig.S = [32]byte(bytes.Repeat([]byte{0xff}, 32))
			tokened := buildIncrement(t, env.Chain, w1, addr, 1)
			tokened.Tokens = [][]byte{{1, 2, 3}}
			tokened.Sig = secp256k1.Signature{}
			txs := []*evm.Transaction{
				buildIncrement(t, env.Chain, w1, addr, 0),
				unsigned,
				zeroR,
				buildIncrement(t, env.Chain, w2, addr, 0),
				maxS,
				tokened,
				buildIncrement(t, env.Chain, w1, addr, 1),
			}
			var lines []string
			for i, res := range env.Chain.Execute(txs, opts) {
				if res.Err != nil {
					lines = append(lines, fmt.Sprintf("tx %d: %v", i, res.Err))
					continue
				}
				r := res.Receipt
				lines = append(lines, fmt.Sprintf("tx %d: status=%v gas=%d hash=%s", i, r.Status, r.GasUsed, r.TxHash.Hex()))
			}
			for _, i := range []int{1, 2, 4, 5} {
				if !strings.Contains(lines[i], evm.ErrBadTxSignature.Error()) {
					t.Errorf("%v: %s, want ErrBadTxSignature", opts.Scheduler, lines[i])
				}
			}
			got = append(got, strings.Join(lines, "\n"))
		}
		if got[0] != got[1] {
			t.Errorf("schedulers disagree:\nserial:\n%s\noptimistic:\n%s", got[0], got[1])
		}
	})
}
