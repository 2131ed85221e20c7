package evm_test

import (
	"errors"
	"math/big"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/evmtest"
	"repro/internal/gas"
	"repro/internal/metrics"
	"repro/internal/secp256k1"
	"repro/internal/store"
	"repro/internal/types"
	"repro/internal/wallet"
)

var (
	persistTSKey = secp256k1.PrivateKeyFromSeed([]byte("persist ts"))
	persistOwner = secp256k1.PrivateKeyFromSeed([]byte("persist owner"))
	persistUser  = secp256k1.PrivateKeyFromSeed([]byte("persist user"))
)

// persistCounter is the workload contract: a counter whose value lives in
// contract storage, so recovery correctness is visible as a number.
func persistCounter() *evm.Contract {
	c := evm.NewContract("PersistCounter")
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
		Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			v, err := call.LoadUint(gas.CatApp, evm.SlotN(0))
			if err != nil {
				return nil, err
			}
			return []any{v}, nil
		},
	})
	return c
}

// counterBoot is a deterministic recovery bootstrap: both incarnations
// fund the same accounts and deploy the same contract from the same
// owner nonce, so the contract lands at the same address.
func counterBoot(contract func() *evm.Contract) (func(*evm.Chain) error, *types.Address) {
	addr := new(types.Address)
	boot := func(ch *evm.Chain) error {
		ch.Fund(persistOwner.Address(), evmtest.Ether(1000))
		ch.Fund(persistUser.Address(), evmtest.Ether(1000))
		a, _, err := ch.Deploy(persistOwner.Address(), contract())
		*addr = a
		return err
	}
	return boot, addr
}

func counterValue(t *testing.T, ch *evm.Chain, addr types.Address) uint64 {
	t.Helper()
	ret, _, err := ch.StaticCall(persistUser.Address(), addr, "get", nil, nil)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	return ret[0].(uint64)
}

func TestCommitCodecRoundTrip(t *testing.T) {
	tx := &evm.Transaction{
		Nonce:    7,
		To:       types.BytesToAddress([]byte{0xaa}),
		Value:    big.NewInt(12345),
		GasLimit: 900_000,
		GasPrice: big.NewInt(2_000_000_000),
		Method:   "act",
		Args:     []any{uint64(21)},
		Tokens:   [][]byte{{1, 2, 3}, {4, 5}},
	}
	if err := evm.SignTx(tx, persistUser, 1337); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2020, 3, 17, 12, 0, 0, 987654321, time.UTC)
	blob, err := evm.EncodeCommit(tx, at)
	if err != nil {
		t.Fatal(err)
	}
	got, gotAt, err := evm.DecodeCommit(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !gotAt.Equal(at) {
		t.Errorf("block time = %v, want %v", gotAt, at)
	}
	if got.Nonce != tx.Nonce || got.To != tx.To || got.GasLimit != tx.GasLimit {
		t.Errorf("fields diverged: %+v", got)
	}
	if got.Value.Cmp(tx.Value) != 0 || got.GasPrice.Cmp(tx.GasPrice) != 0 {
		t.Error("amounts diverged")
	}
	if len(got.Tokens) != 2 {
		t.Fatalf("tokens = %v", got.Tokens)
	}
	// The decoded transaction carries RawData instead of Method/Args but
	// must sign-hash — and therefore recover — identically.
	wantHash, err := tx.SigHash(1337)
	if err != nil {
		t.Fatal(err)
	}
	gotHash, err := got.SigHash(1337)
	if err != nil {
		t.Fatal(err)
	}
	if wantHash != gotHash {
		t.Error("decoded commit sign-hashes differently")
	}
	sender, err := got.Sender(1337)
	if err != nil {
		t.Fatal(err)
	}
	if sender != persistUser.Address() {
		t.Errorf("sender = %s, want %s", sender, persistUser.Address())
	}

	if _, _, err := evm.DecodeCommit([]byte("garbage")); err == nil {
		t.Error("garbage commit accepted")
	}
}

// TestRecoverChainReplay: every committed transaction survives a crash
// with no snapshot at all — pure log replay on top of the bootstrap.
func TestRecoverChainReplay(t *testing.T) {
	clock := evmtest.NewClock()
	cfg := evm.DefaultConfig()
	cfg.Now = clock.Now
	boot, addr := counterBoot(persistCounter)
	mem := store.NewMemory()

	ch1, err := evm.RecoverChain(cfg, mem, 0, boot)
	if err != nil {
		t.Fatal(err)
	}
	w := wallet.New(persistUser, ch1)
	for i := 0; i < 3; i++ {
		clock.Advance(time.Second)
		r, err := w.Call(*addr, "increment", wallet.CallOpts{})
		if err != nil || !r.Status {
			t.Fatalf("increment %d: %v / %+v", i, err, r)
		}
	}
	wantHeight := ch1.Height()
	wantNonce := ch1.NonceOf(persistUser.Address())
	wantBalance := ch1.Balance(persistUser.Address())
	// Crash: abandon ch1, recover from the same backend.

	ch2, err := evm.RecoverChain(cfg, mem, 0, boot)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, ch2, *addr); got != 3 {
		t.Errorf("recovered counter = %d, want 3", got)
	}
	if got := ch2.Height(); got != wantHeight {
		t.Errorf("recovered height = %d, want %d", got, wantHeight)
	}
	if got := ch2.NonceOf(persistUser.Address()); got != wantNonce {
		t.Errorf("recovered nonce = %d, want %d", got, wantNonce)
	}
	if got := ch2.Balance(persistUser.Address()); got.Cmp(wantBalance) != 0 {
		t.Errorf("recovered balance = %s, want %s", got, wantBalance)
	}
	// The recovered chain keeps working — and keeps logging.
	w2 := wallet.New(persistUser, ch2)
	if r, err := w2.Call(*addr, "increment", wallet.CallOpts{}); err != nil || !r.Status {
		t.Fatalf("post-recovery increment: %v / %+v", err, r)
	}
	ch3, err := evm.RecoverChain(cfg, mem, 0, boot)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, ch3, *addr); got != 4 {
		t.Errorf("second recovery counter = %d, want 4", got)
	}
}

// TestRecoverChainFromSnapshot: the snapshot cadence folds the log, the
// block list restarts at the snapshot height, and replay continues from
// there — on a real file backend, across a simulated crash.
func TestRecoverChainFromSnapshot(t *testing.T) {
	clock := evmtest.NewClock()
	cfg := evm.DefaultConfig()
	cfg.Now = clock.Now
	boot, addr := counterBoot(persistCounter)
	dir := t.TempDir()

	f, err := store.OpenFile(dir, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch1, err := evm.RecoverChain(cfg, f, 2, boot) // snapshot every 2 commits
	if err != nil {
		t.Fatal(err)
	}
	w := wallet.New(persistUser, ch1)
	for i := 0; i < 5; i++ {
		clock.Advance(time.Second)
		if r, err := w.Call(*addr, "increment", wallet.CallOpts{}); err != nil || !r.Status {
			t.Fatalf("increment %d: %v / %+v", i, err, r)
		}
	}
	wantHeight := ch1.Height() // genesis + deploy + 5 txs = 6
	// Crash without Close.

	g, err := store.OpenFile(dir, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ch2, err := evm.RecoverChain(cfg, g, 2, boot)
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, ch2, *addr); got != 5 {
		t.Errorf("recovered counter = %d, want 5", got)
	}
	if got := ch2.Height(); got != wantHeight {
		t.Errorf("recovered height = %d, want %d", got, wantHeight)
	}
	// Snapshot at commit 4 = block 5; only block 6 was replayed, so the
	// recovered chain resolves blocks ≥ 5 and nothing older.
	if _, ok := ch2.BlockByNumber(wantHeight); !ok {
		t.Errorf("head block %d unresolvable", wantHeight)
	}
	if _, ok := ch2.BlockByNumber(2); ok {
		t.Error("pre-snapshot block still resolvable after recovery")
	}
}

// TestSnapshotToStoreCapturesFund: out-of-band faucet credits are not in
// the commit log; an explicit snapshot makes them durable.
func TestSnapshotToStoreCapturesFund(t *testing.T) {
	clock := evmtest.NewClock()
	cfg := evm.DefaultConfig()
	cfg.Now = clock.Now
	boot, _ := counterBoot(persistCounter)
	mem := store.NewMemory()

	ch1, err := evm.RecoverChain(cfg, mem, 0, boot)
	if err != nil {
		t.Fatal(err)
	}
	latecomer := types.BytesToAddress([]byte{0x99})
	ch1.Fund(latecomer, evmtest.Ether(7))
	if err := ch1.SnapshotToStore(); err != nil {
		t.Fatal(err)
	}

	ch2, err := evm.RecoverChain(cfg, mem, 0, boot)
	if err != nil {
		t.Fatal(err)
	}
	if got := ch2.Balance(latecomer); got.Cmp(evmtest.Ether(7)) != 0 {
		t.Errorf("latecomer balance = %s after recovery, want 7 ether", got)
	}
}

// persistProtected builds a SMACS-guarded contract whose one public
// method runs the Alg. 1 verification preamble, with a one-time bitmap.
func persistProtected() *evm.Contract {
	v := core.NewVerifier(persistTSKey.Address())
	bm, err := core.NewBitmap(64, 100)
	if err != nil {
		panic(err)
	}
	v.WithBitmap(bm)
	c := evm.NewContract("PersistProtected")
	c.SetInitialStorageWords(bm.StorageWords())
	c.MustAddMethod(evm.Method{
		Name:       "ping",
		Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			if err := v.Verify(call); err != nil {
				return nil, err
			}
			return []any{true}, nil
		},
	})
	return c
}

// TestRecoverChainOneTimeBitmap is the § IV-C durability check: the
// one-time bitmap lives in contract storage, so after a crash a spent
// token index is STILL spent — replaying the captured token fails with
// ErrTokenUsed while a fresh index keeps working.
func TestRecoverChainOneTimeBitmap(t *testing.T) {
	clock := evmtest.NewClock()
	cfg := evm.DefaultConfig()
	cfg.Now = clock.Now
	boot, addr := counterBoot(persistProtected)
	mem := store.NewMemory()

	ch1, err := evm.RecoverChain(cfg, mem, 0, boot)
	if err != nil {
		t.Fatal(err)
	}

	issue := func(index int64) wallet.CallOpts {
		appData, err := (&evm.Transaction{Method: "ping"}).AppData()
		if err != nil {
			t.Fatal(err)
		}
		binding := core.Binding{Origin: persistUser.Address(), Contract: *addr}
		copy(binding.Selector[:], appData[:4])
		binding.Data = appData
		tk, err := core.SignToken(persistTSKey, core.MethodType, clock.Now().Add(time.Hour), index, binding)
		if err != nil {
			t.Fatal(err)
		}
		return wallet.WithTokens(wallet.TokenEntry{Contract: *addr, Token: tk})
	}

	w := wallet.New(persistUser, ch1)
	firstUse := issue(1)
	if r, err := w.Call(*addr, "ping", firstUse); err != nil || !r.Status {
		t.Fatalf("first use of index 1: %v / %+v", err, r)
	}

	// Crash and recover: the spent bit must come back with the state.
	ch2, err := evm.RecoverChain(cfg, mem, 0, boot)
	if err != nil {
		t.Fatal(err)
	}
	w2 := wallet.New(persistUser, ch2)
	r, err := w2.Call(*addr, "ping", firstUse)
	if err != nil {
		t.Fatalf("replayed token rejected before execution: %v", err)
	}
	if r.Status || !errors.Is(r.Err, core.ErrTokenUsed) {
		t.Errorf("replayed one-time token after recovery: status=%v err=%v, want ErrTokenUsed", r.Status, r.Err)
	}
	if r, err := w2.Call(*addr, "ping", issue(2)); err != nil || !r.Status {
		t.Fatalf("fresh index after recovery: %v / %+v", err, r)
	}
}

// guardedPings signs n guarded ping calls from persistUser with the
// consecutive nonces from nonce on, each carrying its own one-time token
// (indexes from firstIndex on) — a nonce chain the way a block of one
// busy sender looks.
func guardedPings(t *testing.T, ch *evm.Chain, target types.Address, nonce uint64, firstIndex int64, n int, expire time.Time) []*evm.Transaction {
	t.Helper()
	appData, err := (&evm.Transaction{Method: "ping"}).AppData()
	if err != nil {
		t.Fatal(err)
	}
	binding := core.Binding{Origin: persistUser.Address(), Contract: target, Data: appData}
	copy(binding.Selector[:], appData[:4])
	txs := make([]*evm.Transaction, n)
	for i := range txs {
		tk, err := core.SignToken(persistTSKey, core.MethodType, expire, firstIndex+int64(i), binding)
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = &evm.Transaction{
			Nonce:    nonce + uint64(i),
			To:       target,
			Value:    new(big.Int),
			GasLimit: wallet.DefaultGasLimit,
			GasPrice: ch.Config().Price.Wei(1),
			Method:   "ping",
			Tokens:   wallet.WithTokens(wallet.TokenEntry{Contract: target, Token: tk}).Tokens,
		}
		if err := evm.SignTx(txs[i], persistUser, ch.Config().ChainID); err != nil {
			t.Fatal(err)
		}
	}
	return txs
}

func mustCommitAll(t *testing.T, results []evm.BatchResult) {
	t.Helper()
	for i, res := range results {
		if res.Err != nil || res.Receipt == nil || !res.Receipt.Status {
			t.Fatalf("tx %d: err=%v receipt=%+v", i, res.Err, res.Receipt)
		}
	}
}

var schedulers = []evm.Scheduler{evm.SchedulerSerial, evm.SchedulerOptimistic}

// TestExecutePersistsOneSyncPerBatch: a 64-transaction Execute batch is
// logged as 64 KindCommit records behind a single fsync, whatever the
// scheduler, and the log recovers the live chain exactly.
func TestExecutePersistsOneSyncPerBatch(t *testing.T) {
	for _, sched := range schedulers {
		t.Run(sched.String(), func(t *testing.T) {
			clock := evmtest.NewClock()
			cfg := evm.DefaultConfig()
			cfg.Now = clock.Now
			boot, addr := counterBoot(persistProtected)
			dir := t.TempDir()
			reg := metrics.NewRegistry()
			f, err := store.OpenFile(dir, store.FileOptions{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			ch, err := evm.RecoverChain(cfg, f, 0, boot)
			if err != nil {
				t.Fatal(err)
			}
			const n = 64
			txs := guardedPings(t, ch, *addr, ch.NonceOf(persistUser.Address()), 1, n, clock.Now().Add(time.Hour))
			fsyncs := reg.Counter(store.MetricWALFsyncs, "")
			before := fsyncs.Value()
			mustCommitAll(t, ch.Execute(txs, evm.ExecOptions{Scheduler: sched}))
			if got := fsyncs.Value() - before; got != 1 {
				t.Errorf("fsyncs for one %d-tx batch = %d, want 1", n, got)
			}
			want, err := ch.StateDigest()
			if err != nil {
				t.Fatal(err)
			}
			wantHeight := ch.Height()
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			g, err := store.OpenFile(dir, store.FileOptions{Metrics: metrics.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			_, recs, err := g.Replay()
			if err != nil {
				t.Fatal(err)
			}
			commits := 0
			for _, r := range recs {
				if r.Kind == store.KindCommit {
					commits++
				}
			}
			if commits != n {
				t.Errorf("log holds %d commit records, want %d", commits, n)
			}
			h, err := store.OpenFile(dir, store.FileOptions{Metrics: metrics.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			rec, err := evm.RecoverChain(cfg, h, 0, boot)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := rec.StateDigest(); got != want {
				t.Errorf("recovered digest %s, live %s", got, want)
			}
			if got := rec.Height(); got != wantHeight {
				t.Errorf("recovered height %d, live %d", got, wantHeight)
			}
		})
	}
}

var errInjected = errors.New("injected append failure")

// failingBackend is a Memory backend whose failAt-th AppendBatch fails
// without appending anything.
type failingBackend struct {
	*store.Memory
	failAt, batches int
}

func (b *failingBackend) AppendBatch(recs []store.Record) error {
	b.batches++
	if b.batches == b.failAt {
		return errInjected
	}
	return b.Memory.AppendBatch(recs)
}

// TestPersistFailurePoisonsChain is the fail-stop contract: when a batch
// fails to persist, its mined transactions carry their receipts and the
// error, the chain refuses every later batch with ErrChainPoisoned
// without touching the log, and RecoverChain over what the log accepted
// rebuilds exactly the durable prefix.
func TestPersistFailurePoisonsChain(t *testing.T) {
	for _, sched := range schedulers {
		t.Run(sched.String(), func(t *testing.T) {
			clock := evmtest.NewClock()
			cfg := evm.DefaultConfig()
			cfg.Now = clock.Now
			boot, addr := counterBoot(persistProtected)
			const failAt, perBatch = 3, 4
			fb := &failingBackend{Memory: store.NewMemory(), failAt: failAt}
			ch, err := evm.RecoverChain(cfg, fb, 0, boot)
			if err != nil {
				t.Fatal(err)
			}
			expire := clock.Now().Add(time.Hour)
			user := persistUser.Address()
			opts := evm.ExecOptions{Scheduler: sched}
			batch := func(k int) []*evm.Transaction {
				return guardedPings(t, ch, *addr, ch.NonceOf(user), int64(k*perBatch+1), perBatch, expire)
			}

			for k := 1; k < failAt; k++ {
				clock.Advance(time.Second)
				mustCommitAll(t, ch.Execute(batch(k), opts))
			}
			durable, err := ch.StateDigest()
			if err != nil {
				t.Fatal(err)
			}
			durableHeight := ch.Height()

			clock.Advance(time.Second)
			for i, res := range ch.Execute(batch(failAt), opts) {
				if res.Receipt == nil || !errors.Is(res.Err, evm.ErrChainPoisoned) || !errors.Is(res.Err, errInjected) {
					t.Fatalf("tx %d of the failed batch: receipt=%v err=%v, want receipt plus a poisoned error wrapping the cause", i, res.Receipt != nil, res.Err)
				}
			}
			live, _ := ch.StateDigest()
			if live == durable {
				t.Fatal("failed batch left no trace in memory; the test proves nothing")
			}

			// Poisoned: the next batch and a single Apply are refused whole,
			// and nothing more reaches the log.
			for i, res := range ch.Execute(batch(failAt+1), opts) {
				if res.Receipt != nil || !errors.Is(res.Err, evm.ErrChainPoisoned) {
					t.Fatalf("tx %d after poisoning: receipt=%v err=%v, want ErrChainPoisoned", i, res.Receipt != nil, res.Err)
				}
			}
			if _, err := ch.Apply(batch(failAt + 2)[0]); !errors.Is(err, evm.ErrChainPoisoned) {
				t.Fatalf("Apply after poisoning: %v, want ErrChainPoisoned", err)
			}
			if err := ch.SnapshotToStore(); !errors.Is(err, evm.ErrChainPoisoned) {
				t.Fatalf("SnapshotToStore after poisoning: %v, want ErrChainPoisoned", err)
			}
			if _, _, err := ch.Deploy(persistOwner.Address(), persistCounter()); !errors.Is(err, evm.ErrChainPoisoned) {
				t.Fatalf("Deploy after poisoning: %v, want ErrChainPoisoned", err)
			}
			if err := ch.Reorg(durableHeight); !errors.Is(err, evm.ErrChainPoisoned) {
				t.Fatalf("Reorg after poisoning: %v, want ErrChainPoisoned", err)
			}
			if _, _, err := ch.StaticCall(user, *addr, "ping", nil, nil); !errors.Is(err, evm.ErrChainPoisoned) {
				t.Fatalf("StaticCall after poisoning: %v, want ErrChainPoisoned", err)
			}
			if fb.batches != failAt {
				t.Errorf("poisoned chain made %d AppendBatch calls, want %d", fb.batches, failAt)
			}
			if got, _ := ch.StateDigest(); got != live {
				t.Error("poisoned chain's state moved after the failure")
			}

			rec, err := evm.RecoverChain(cfg, fb.Memory, 0, boot)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := rec.StateDigest(); got != durable {
				t.Errorf("recovered digest %s, want the durable prefix's %s", got, durable)
			}
			if got := rec.Height(); got != durableHeight {
				t.Errorf("recovered height %d, want %d", got, durableHeight)
			}
			// The recovered chain resumes where the log ends: the failed
			// batch's tokens were never spent durably, so it commits again.
			clock.Advance(time.Second)
			mustCommitAll(t, rec.Execute(guardedPings(t, rec, *addr, rec.NonceOf(user), failAt*perBatch+1, perBatch, expire), opts))

			// Recovery also lifts the refusals of Deploy, StaticCall and Reorg.
			counter, _, err := rec.Deploy(persistOwner.Address(), persistCounter())
			if err != nil {
				t.Fatalf("Deploy on the recovered chain: %v", err)
			}
			if got := counterValue(t, rec, counter); got != 0 {
				t.Errorf("fresh counter reads %d, want 0", got)
			}
			if err := rec.Reorg(rec.Height() - 1); err != nil {
				t.Fatalf("Reorg on the recovered chain: %v", err)
			}
		})
	}
}
