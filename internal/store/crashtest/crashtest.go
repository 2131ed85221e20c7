// Package crashtest kills a durable SMACS deployment at randomized WAL
// offsets and proves that recovery upholds the two § IV-C safety
// contracts:
//
//  1. no one-time token index is ever issued twice — the durable counter
//     under the ShardedCounter resumes strictly above every lease any
//     previous incarnation could have observed, and the on-chain bitmap
//     still rejects every acknowledged spent index;
//  2. no committed transaction is lost — every Apply or Execute batch the
//     workload saw return success is reflected in the recovered account
//     nonce and chain height.
//
// The harness re-execs the test binary as a child process running
// Child(), which appends an acknowledgement line to ack.log after every
// durability point (token issued, transaction or block committed),
// carrying the store.Position() at that moment. The parent SIGKILLs the
// child at a random point, then simulates the power-loss part a SIGKILL
// cannot (the page cache survives kill -9): it truncates each WAL to a
// random offset no lower than the highest acknowledged durable offset —
// including mid-record and mid-block cuts, which replay as a prefix of
// the block — and optionally flips a byte in the discarded-eligible
// region. Everything past an ack is fair game; everything up to it must
// survive. Verify() then recovers in-process and asserts the contracts.
package crashtest

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"math/big"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/secp256k1"
	"repro/internal/store"
	"repro/internal/ts/stack"
	"repro/internal/types"
	"repro/internal/wallet"
)

// Deterministic workload identities: both the child and the verifying
// parent derive the same keys, so the bootstrap deploys to the same
// address in every incarnation.
var (
	tsKey    = secp256k1.PrivateKeyFromSeed([]byte("crashtest ts"))
	ownerKey = secp256k1.PrivateKeyFromSeed([]byte("crashtest owner"))
	userKey  = secp256k1.PrivateKeyFromSeed([]byte("crashtest user"))
)

// Workload geometry. Small blocks force frequent counter leases (more
// kill-sensitive appends); small snapshot cadences force generation
// rotations under fire. The chain cadence is deliberately not a multiple
// of the 1+blockTxs commits of two workload steps, so unacknowledged
// blocks regularly sit in the live WAL where a torn cut can split them.
const (
	counterShards    = 4
	counterBlock     = 8
	counterSnapEvery = 16
	chainSnapEvery   = 7
	bitmapBits       = 1 << 13
	bitmapBaseSlot   = 1 << 32
	// blockTxs is the length of the nonce chain every other workload step
	// commits as one Execute batch.
	blockTxs = 4
)

// guarded builds the SMACS-protected target contract: one public method
// behind the Alg. 1 preamble with a one-time bitmap.
func guarded() *evm.Contract {
	v := core.NewVerifier(tsKey.Address())
	bm, err := core.NewBitmap(bitmapBits, bitmapBaseSlot)
	if err != nil {
		panic(err)
	}
	v.WithBitmap(bm)
	c := evm.NewContract("CrashGuarded")
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

func ether(n int64) *big.Int {
	return new(big.Int).Mul(big.NewInt(n), big.NewInt(1e18))
}

// deployment is one recovered (or fresh) durable SMACS node.
type deployment struct {
	counter    *stack.Counter
	chainStore *store.File
	chain      *evm.Chain
	target     types.Address
}

func open(dir string) (*deployment, error) {
	counter, err := stack.Open(stack.Config{
		Dir:           filepath.Join(dir, "ts"),
		SnapshotEvery: counterSnapEvery,
		Shards:        counterShards,
		Block:         counterBlock,
	})
	if err != nil {
		return nil, fmt.Errorf("recover counter: %w", err)
	}
	chainB, err := store.OpenFile(filepath.Join(dir, "chain"), store.FileOptions{})
	if err != nil {
		return nil, fmt.Errorf("open chain store: %w", err)
	}
	// The deterministic recovery prologue shared by all incarnations:
	// same keys, same order, so the contract lands at the same address.
	var target types.Address
	boot := func(ch *evm.Chain) error {
		ch.Fund(ownerKey.Address(), ether(1000))
		ch.Fund(userKey.Address(), ether(1000))
		addr, _, err := ch.Deploy(ownerKey.Address(), guarded())
		target = addr
		return err
	}
	chain, err := evm.RecoverChain(evm.DefaultConfig(), chainB, chainSnapEvery, boot)
	if err != nil {
		return nil, fmt.Errorf("recover chain: %w", err)
	}
	return &deployment{
		counter:    counter,
		chainStore: chainB,
		chain:      chain,
		target:     target,
	}, nil
}

func (d *deployment) close() {
	d.counter.Close(false)
	d.chainStore.Close()
}

// token issues (signs) a one-time token for the given index, bound to
// the user and the ping call.
func (d *deployment) token(index int64, expire time.Time) (wallet.CallOpts, error) {
	appData, err := (&evm.Transaction{Method: "ping"}).AppData()
	if err != nil {
		return wallet.CallOpts{}, err
	}
	binding := core.Binding{Origin: userKey.Address(), Contract: d.target}
	copy(binding.Selector[:], appData[:4])
	binding.Data = appData
	tk, err := core.SignToken(tsKey, core.MethodType, expire, index, binding)
	if err != nil {
		return wallet.CallOpts{}, err
	}
	return wallet.WithTokens(wallet.TokenEntry{Contract: d.target, Token: tk}), nil
}

// ping builds and signs the user's guarded ping call with an explicit
// nonce, spending the one-time token of the given index.
func (d *deployment) ping(nonce uint64, index int64, expire time.Time) (*evm.Transaction, error) {
	opts, err := d.token(index, expire)
	if err != nil {
		return nil, err
	}
	cfg := d.chain.Config()
	tx := &evm.Transaction{
		Nonce:    nonce,
		To:       d.target,
		Value:    new(big.Int),
		GasLimit: wallet.DefaultGasLimit,
		GasPrice: cfg.Price.Wei(1),
		Method:   "ping",
		Tokens:   opts.Tokens,
	}
	if err := evm.SignTx(tx, userKey, cfg.ChainID); err != nil {
		return nil, err
	}
	return tx, nil
}

// Child runs the issuance/apply workload until killed. Each step
// allocates one-time indexes (durable leases) and acks each, spends them
// on-chain (durable commits), then acks every spend. Even steps commit a
// single transaction through Apply's path; odd steps commit a
// blockTxs-long nonce chain, one token per transaction, as one optimistic
// Execute batch — one WAL write for the whole block, so a kill or a torn
// truncation can land inside a block. Spends are acked only after the
// call returns. It never exits on its own short of an error.
func Child(dir string) error {
	d, err := open(dir)
	if err != nil {
		return err
	}
	defer d.close()
	ack, err := os.OpenFile(filepath.Join(dir, "ack.log"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer ack.Close()

	deadline := time.Now().Add(30 * time.Second) // orphan safety net
	for step := 0; time.Now().Before(deadline); step++ {
		n, opts := 1, evm.ExecOptions{Scheduler: evm.SchedulerSerial}
		if step%2 == 1 {
			n, opts.Scheduler = blockTxs, evm.SchedulerOptimistic
		}
		nonce := d.chain.NonceOf(userKey.Address())
		indexes := make([]int64, n)
		txs := make([]*evm.Transaction, n)
		for i := range txs {
			index, err := d.counter.Next()
			if err != nil {
				return fmt.Errorf("issue index: %w", err)
			}
			gen, off := d.counter.Store.Position()
			if _, err := fmt.Fprintf(ack, "I %d %d %d\n", index, gen, off); err != nil {
				return err
			}
			indexes[i] = index
			if txs[i], err = d.ping(nonce+uint64(i), index, time.Now().Add(time.Hour)); err != nil {
				return err
			}
		}
		for i, res := range d.chain.Execute(txs, opts) {
			if res.Err != nil {
				return fmt.Errorf("apply index %d: %w", indexes[i], res.Err)
			}
			if !res.Receipt.Status {
				return fmt.Errorf("apply index %d reverted: %v", indexes[i], res.Receipt.Err)
			}
		}
		cgen, coff := d.chainStore.Position()
		nonce = d.chain.NonceOf(userKey.Address())
		for _, index := range indexes {
			if _, err := fmt.Fprintf(ack, "C %d %d %d %d\n", nonce, index, cgen, coff); err != nil {
				return err
			}
		}
	}
	return errors.New("crashtest child was never killed")
}

// Acks is the parent's view of what the dead child acknowledged as
// durable.
type Acks struct {
	// Issued maps acknowledged one-time indexes (token issuance reached
	// a durable lease).
	Issued map[int64]bool
	// Committed maps acknowledged spent indexes (Apply or Execute
	// returned).
	Committed map[int64]bool
	// MaxNonce is the highest acknowledged post-commit account nonce.
	MaxNonce uint64
	// TSSafe and ChainSafe record, per WAL generation, the highest
	// acknowledged durable offset — the truncation floor.
	TSSafe, ChainSafe map[int64]int64
}

// ReadAcks parses ack.log. A torn final line (the kill can land
// mid-fprintf) is ignored.
func ReadAcks(dir string) (*Acks, error) {
	a := &Acks{
		Issued:    make(map[int64]bool),
		Committed: make(map[int64]bool),
		TSSafe:    make(map[int64]int64),
		ChainSafe: make(map[int64]int64),
	}
	f, err := os.Open(filepath.Join(dir, "ack.log"))
	if err != nil {
		if os.IsNotExist(err) {
			return a, nil
		}
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var index, gen, off int64
		var nonce uint64
		switch {
		case strings.HasPrefix(line, "I "):
			if _, err := fmt.Sscanf(line, "I %d %d %d", &index, &gen, &off); err != nil {
				continue // torn tail
			}
			a.Issued[index] = true
			if off > a.TSSafe[gen] {
				a.TSSafe[gen] = off
			}
		case strings.HasPrefix(line, "C "):
			if _, err := fmt.Sscanf(line, "C %d %d %d %d", &nonce, &index, &gen, &off); err != nil {
				continue
			}
			a.Committed[index] = true
			if nonce > a.MaxNonce {
				a.MaxNonce = nonce
			}
			if off > a.ChainSafe[gen] {
				a.ChainSafe[gen] = off
			}
		}
	}
	return a, sc.Err()
}

// TornTruncate simulates the un-synced suffix lost to a power cut: the
// store's current WAL is cut at a random offset no lower than the
// highest acknowledged durable offset for that generation — deliberately
// including mid-record offsets — and, sometimes, a byte in the doomed
// region is flipped instead of removed (a torn sector write).
func TornTruncate(dir string, safe map[int64]int64, rng *rand.Rand) error {
	gens, err := walGens(dir)
	if err != nil || len(gens) == 0 {
		return err
	}
	gen := gens[len(gens)-1]
	path := store.WALPath(dir, uint64(gen))
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := info.Size()
	floor := safe[gen] // zero when every record in this WAL is unacknowledged
	if floor > size {
		return fmt.Errorf("acked offset %d beyond WAL size %d: durability violated before truncation", floor, size)
	}
	if size == floor {
		return nil
	}
	cut := floor + rng.Int63n(size-floor+1)
	switch rng.Intn(3) {
	case 0: // clean cut at a random (likely mid-record) offset
		return os.Truncate(path, cut)
	case 1: // torn sector: keep the length, corrupt a byte past the floor
		if cut == size {
			cut = size - 1
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		var b [1]byte
		if _, err := f.ReadAt(b[:], cut); err != nil {
			return err
		}
		b[0] ^= 0xff
		_, err = f.WriteAt(b[:], cut)
		return err
	default: // lose nothing (crash right after an fsync)
		return nil
	}
}

func walGens(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []int64
	for _, e := range entries {
		var g int64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &g); err == nil {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Verify recovers the deployment in-process and asserts the § IV-C
// safety contracts against what the dead child acknowledged.
func Verify(dir string, acks *Acks, rng *rand.Rand) error {
	d, err := open(dir)
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	defer d.close()

	var maxIssued int64
	for idx := range acks.Issued {
		if idx > maxIssued {
			maxIssued = idx
		}
	}

	// Contract 1a: the reborn counter never re-issues an index. Fresh
	// indexes come from freshly leased blocks strictly above every
	// durable lease, so they must clear every acknowledged index.
	for i := 0; i < 3*counterBlock; i++ {
		idx, err := d.counter.Next()
		if err != nil {
			return fmt.Errorf("post-recovery issue: %w", err)
		}
		if acks.Issued[idx] {
			return fmt.Errorf("index %d issued twice across the crash", idx)
		}
		if idx <= maxIssued {
			return fmt.Errorf("post-recovery index %d not above pre-crash maximum %d", idx, maxIssued)
		}
	}

	// Contract 2: no committed transaction is lost. Every acknowledged
	// commit incremented the account nonce durably before acking.
	if got := d.chain.NonceOf(userKey.Address()); got < acks.MaxNonce {
		return fmt.Errorf("recovered nonce %d below acknowledged %d: committed txs lost", got, acks.MaxNonce)
	}

	// Contract 1b: every acknowledged spent index is still spent — a
	// re-forged token for it must be rejected by the recovered bitmap.
	// (Sample to keep 50-run sweeps fast; always include the maximum.)
	spent := make([]int64, 0, len(acks.Committed))
	for idx := range acks.Committed {
		spent = append(spent, idx)
	}
	sort.Slice(spent, func(i, j int) bool { return spent[i] < spent[j] })
	sample := spent
	if len(sample) > 8 {
		sample = append([]int64(nil), spent[len(spent)-1], spent[0])
		for len(sample) < 8 {
			sample = append(sample, spent[rng.Intn(len(spent))])
		}
	}
	w := wallet.New(userKey, d.chain)
	for _, idx := range sample {
		opts, err := d.token(idx, time.Now().Add(time.Hour))
		if err != nil {
			return err
		}
		r, err := w.Call(d.target, "ping", opts)
		if err != nil {
			return fmt.Errorf("replay of spent index %d rejected pre-execution: %w", idx, err)
		}
		if r.Status {
			return fmt.Errorf("spent index %d accepted again after recovery", idx)
		}
		if !errors.Is(r.Err, core.ErrTokenUsed) {
			return fmt.Errorf("spent index %d rejected with %v, want ErrTokenUsed", idx, r.Err)
		}
	}

	// And the deployment still works: a fresh index is accepted.
	idx, err := d.counter.Next()
	if err != nil {
		return err
	}
	opts, err := d.token(idx, time.Now().Add(time.Hour))
	if err != nil {
		return err
	}
	r, err := w.Call(d.target, "ping", opts)
	if err != nil || !r.Status {
		return fmt.Errorf("fresh index %d rejected after recovery: %v / %v", idx, err, r)
	}
	return nil
}
