package evm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/rlp"
	"repro/internal/secp256k1"
	"repro/internal/state"
	"repro/internal/store"
	"repro/internal/types"
)

// Chain durability: an attached store.Backend receives one KindCommit
// record per mined transaction — all of an Execute batch's records in
// one AppendBatch, so one write and one sync per batch — and periodic
// whole-state snapshots, so a crashed node recovers by re-executing the
// logged suffix on top of the last snapshot.
//
// Contract handlers are Go closures and cannot be serialized, so
// recovery splits responsibility:
//
//   - a deterministic bootstrap function re-deploys contracts and funds
//     the genesis accounts (same keys, same order → same addresses);
//   - the snapshot then replaces the world state wholesale and restarts
//     the block list at the snapshot height;
//   - the commit log re-executes with each transaction's original block
//     time, so token-expiry checks repeat identically.
//
// A crash while a batch is being written may leave any prefix of its
// commit records durable, and replay then re-executes that prefix. None
// of those transactions was acknowledged (Execute returns only after the
// whole batch is durable), and a prefix of a serial history is itself a
// valid serial history, so recovery is still a state some serial
// execution reaches.
//
// Persistence is fail-stop: once a batch or a snapshot fails to persist,
// the in-memory chain is ahead of its log, so the chain is poisoned and
// every later Apply, Execute, Deploy, Reorg, StaticCall and SnapshotToStore
// fails with ErrChainPoisoned. The only way forward is RecoverChain, which
// rebuilds from what is durable. Fund, Balance and NonceOf have no error
// return and do not check: Fund is a setup helper for bootstrap, Balance
// and NonceOf only inspect.
//
// Out-of-band mutations (Fund, Reorg) are NOT logged: perform them in
// bootstrap, or follow them with SnapshotToStore.

// ErrChainPoisoned is returned by every Apply, Execute, Deploy, Reorg,
// StaticCall and SnapshotToStore after the chain failed to persist a batch
// or a snapshot. The returned error wraps both this sentinel and the original
// persistence failure.
var ErrChainPoisoned = errors.New("evm: chain poisoned by a persistence failure; recover with RecoverChain")

// chainStore is the durability state hanging off a Chain.
type chainStore struct {
	b store.Backend
	// snapshotEvery bounds WAL growth: a state snapshot is taken once
	// this many commits have accumulated (≤ 0 disables automatic
	// snapshots).
	snapshotEvery int
	sinceSnap     int
	// poisoned is set by the first persistence failure (wrapping
	// ErrChainPoisoned) and never cleared.
	poisoned error
}

// AttachStore arms commit logging on the chain: the transactions every
// subsequent Execute (or Apply) batch mines are appended to b, in one
// AppendBatch, before the call returns. A state snapshot is written at
// the first batch boundary at which snapshotEvery or more commits have
// accumulated since the last one, so a large batch may overshoot the
// cadence (≤ 0 disables it; SnapshotToStore still works). The backend
// must already be replayed (RecoverChain does this) or fresh.
func (ch *Chain) AttachStore(b store.Backend, snapshotEvery int) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.store = &chainStore{b: b, snapshotEvery: snapshotEvery}
}

// rejectPoisonedLocked fails every transaction of a batch with the
// sticky persistence error when the chain is poisoned, and reports
// whether it did. The chain mutex must be held.
func (ch *Chain) rejectPoisonedLocked(results []BatchResult) bool {
	err := ch.poisonedLocked()
	if err == nil {
		return false
	}
	for i := range results {
		results[i].Err = err
	}
	ch.metrics.recordOutcomes(results)
	return true
}

// poisonedLocked returns the sticky persistence error, or nil while the
// chain is healthy or has no store. The chain mutex must be held.
func (ch *Chain) poisonedLocked() error {
	if ch.store == nil {
		return nil
	}
	return ch.store.poisoned
}

// poisonLocked records a persistence failure and returns the error every
// later call will see. The chain mutex must be held.
func (ch *Chain) poisonLocked(cause error) error {
	ch.store.poisoned = fmt.Errorf("%w: %w", ErrChainPoisoned, cause)
	return ch.store.poisoned
}

// persistBatchLocked makes the transactions one Execute batch mined
// durable; it is the chain's only path to the log. On failure the chain
// is poisoned and every mined transaction of the batch keeps its receipt
// and carries the error too. The chain mutex must be held; without an
// attached store it is a no-op.
func (ch *Chain) persistBatchLocked(txs []*Transaction, results []BatchResult) {
	if ch.store == nil {
		return
	}
	if err := ch.appendCommitsLocked(txs, results); err != nil {
		err = ch.poisonLocked(err)
		for i := range results {
			if results[i].Receipt != nil {
				results[i].Err = err
			}
		}
	}
}

// appendCommitsLocked logs one KindCommit record per mined transaction,
// in commit order, through a single AppendBatch, then advances the
// snapshot cadence.
func (ch *Chain) appendCommitsLocked(txs []*Transaction, results []BatchResult) error {
	cs := ch.store
	base := ch.blocks[0].Number
	recs := make([]store.Record, 0, len(txs))
	for i, res := range results {
		if res.Receipt == nil {
			continue
		}
		height := res.Receipt.BlockNumber
		data, err := EncodeCommit(txs[i], ch.blocks[height-base].Time)
		if err != nil {
			return fmt.Errorf("evm: encode commit at block %d: %w", height, err)
		}
		recs = append(recs, store.Record{Kind: store.KindCommit, Value: int64(height), Data: data})
	}
	if err := cs.b.AppendBatch(recs); err != nil {
		return fmt.Errorf("evm: persist %d commits: %w", len(recs), err)
	}
	if cs.snapshotEvery <= 0 || len(recs) == 0 {
		return nil
	}
	cs.sinceSnap += len(recs)
	if cs.sinceSnap < cs.snapshotEvery {
		return nil
	}
	cs.sinceSnap = 0
	return ch.snapshotLocked()
}

// SnapshotToStore writes a full state snapshot to the attached store,
// folding the commit log into it. Call it after out-of-band mutations
// (Fund) that the commit log does not capture.
func (ch *Chain) SnapshotToStore() error {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.store == nil {
		return fmt.Errorf("evm: no store attached")
	}
	if ch.store.poisoned != nil {
		return ch.store.poisoned
	}
	if err := ch.snapshotLocked(); err != nil {
		return ch.poisonLocked(err)
	}
	return nil
}

// snapshotLocked encodes height + world state and rotates the store.
func (ch *Chain) snapshotLocked() error {
	stateBytes, err := ch.db.EncodeSnapshot()
	if err != nil {
		return fmt.Errorf("evm: encode state snapshot: %w", err)
	}
	height := ch.blocks[len(ch.blocks)-1].Number
	blob, err := rlp.EncodeList(height, stateBytes)
	if err != nil {
		return fmt.Errorf("evm: encode chain snapshot: %w", err)
	}
	if err := ch.store.b.Snapshot(blob); err != nil {
		return fmt.Errorf("evm: persist snapshot at block %d: %w", height, err)
	}
	return nil
}

// RecoverChain builds a chain from a durable store: bootstrap runs
// first on a fresh chain (re-deploying contracts and funding accounts
// deterministically), then the store's snapshot — if any — replaces the
// world state, then every logged commit re-executes. The returned chain
// has the store attached and keeps logging.
//
// On a store with no history this degrades to NewChain + bootstrap +
// AttachStore, so the same call serves first boot and restart.
func RecoverChain(cfg Config, b store.Backend, snapshotEvery int, bootstrap func(*Chain) error) (*Chain, error) {
	snap, recs, err := b.Replay()
	if err != nil {
		return nil, fmt.Errorf("evm: replay chain store: %w", err)
	}
	ch := NewChain(cfg)
	if bootstrap != nil {
		if err := bootstrap(ch); err != nil {
			return nil, fmt.Errorf("evm: recovery bootstrap: %w", err)
		}
	}
	if snap != nil {
		height, db, err := decodeChainSnapshot(snap)
		if err != nil {
			return nil, err
		}
		ch.db = db
		// Contracts registered by bootstrap survive; the block history
		// below the snapshot is gone, so the chain restarts from a single
		// base block at the snapshot height.
		ch.blocks = []*Block{{Number: height, Time: ch.cfg.Now()}}
	}
	// The logged commits re-execute in order through the commit loop, at
	// their logged block times, so time-dependent checks (token expiry)
	// repeat identically. The loop never logs, so replayed commits are not
	// re-appended; the store is attached only once the log has been
	// re-executed.
	var (
		txs     []*Transaction
		times   []time.Time
		heights []int64
	)
	for _, rec := range recs {
		if rec.Kind != store.KindCommit {
			continue
		}
		tx, blockTime, err := DecodeCommit(rec.Data)
		if err != nil {
			return nil, fmt.Errorf("evm: decode commit at block %d: %w", rec.Value, err)
		}
		txs, times, heights = append(txs, tx), append(times, blockTime), append(heights, rec.Value)
	}
	results := make([]BatchResult, len(txs))
	ch.mu.Lock()
	ch.commitLocked(txs, times, nil, results)
	ch.mu.Unlock()
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("evm: replay commit at block %d: %w", heights[i], res.Err)
		}
	}
	ch.AttachStore(b, snapshotEvery)
	return ch, nil
}

// EncodeCommit serializes a mined transaction plus its block time for
// the WAL. The application calldata is stored pre-encoded (see
// Transaction.RawData), so replay needs no ABI metadata; the token array
// and signature ride along so sender recovery and token checks repeat
// against the original bytes.
func EncodeCommit(tx *Transaction, blockTime time.Time) ([]byte, error) {
	appData, err := tx.AppData()
	if err != nil {
		return nil, err
	}
	size := len(appData) + rlpFieldsOverhead
	for _, t := range tx.Tokens {
		size += len(t) + 9
	}
	buf, start := rlp.OpenList(make([]byte, 0, size))
	buf = rlp.AppendUint(buf, uint64(blockTime.UnixNano()))
	buf = rlp.AppendUint(buf, tx.Nonce)
	if buf, err = rlp.AppendBigInt(buf, tx.GasPrice); err != nil {
		return nil, err
	}
	buf = rlp.AppendUint(buf, tx.GasLimit)
	buf = rlp.AppendBytes(buf, tx.To[:])
	if buf, err = rlp.AppendBigInt(buf, tx.Value); err != nil {
		return nil, err
	}
	buf = rlp.AppendBytes(buf, appData)
	buf, tokens := rlp.OpenList(buf)
	for _, t := range tx.Tokens {
		buf = rlp.AppendBytes(buf, t)
	}
	buf = rlp.CloseList(buf, tokens)
	buf = rlp.AppendBytes(buf, tx.Sig.Bytes())
	return rlp.CloseList(buf, start), nil
}

// DecodeCommit parses an EncodeCommit payload back into an executable
// transaction (RawData form) and its original block time.
func DecodeCommit(b []byte) (*Transaction, time.Time, error) {
	v, err := rlp.Decode(b)
	if err != nil {
		return nil, time.Time{}, err
	}
	if !v.IsList || len(v.List) != 9 {
		return nil, time.Time{}, fmt.Errorf("commit record is not a 9-element list")
	}
	nanos, err := v.List[0].Uint()
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("commit block time: %w", err)
	}
	nonce, err := v.List[1].Uint()
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("commit nonce: %w", err)
	}
	gasPrice, err := v.List[2].BigInt()
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("commit gas price: %w", err)
	}
	gasLimit, err := v.List[3].Uint()
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("commit gas limit: %w", err)
	}
	if v.List[4].IsList || len(v.List[4].Bytes) != types.AddressLength {
		return nil, time.Time{}, fmt.Errorf("commit target address malformed")
	}
	value, err := v.List[5].BigInt()
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("commit value: %w", err)
	}
	if v.List[6].IsList {
		return nil, time.Time{}, fmt.Errorf("commit calldata malformed")
	}
	if !v.List[7].IsList {
		return nil, time.Time{}, fmt.Errorf("commit token array malformed")
	}
	var tokens [][]byte
	for i, t := range v.List[7].List {
		if t.IsList {
			return nil, time.Time{}, fmt.Errorf("commit token %d malformed", i)
		}
		tokens = append(tokens, append([]byte(nil), t.Bytes...))
	}
	if v.List[8].IsList {
		return nil, time.Time{}, fmt.Errorf("commit signature malformed")
	}
	sig, err := secp256k1.ParseSignature(v.List[8].Bytes)
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("commit signature: %w", err)
	}
	tx := &Transaction{
		Nonce:    nonce,
		To:       types.BytesToAddress(v.List[4].Bytes),
		Value:    value,
		GasLimit: gasLimit,
		GasPrice: gasPrice,
		Tokens:   tokens,
		Sig:      sig,
	}
	if len(v.List[6].Bytes) > 0 {
		tx.RawData = append([]byte(nil), v.List[6].Bytes...)
	}
	return tx, time.Unix(0, int64(nanos)), nil
}

// decodeChainSnapshot splits a snapshotLocked blob into the snapshot
// height and the reconstructed world state.
func decodeChainSnapshot(blob []byte) (uint64, *state.DB, error) {
	v, err := rlp.Decode(blob)
	if err != nil {
		return 0, nil, fmt.Errorf("evm: decode chain snapshot: %w", err)
	}
	if !v.IsList || len(v.List) != 2 || v.List[1].IsList {
		return 0, nil, fmt.Errorf("evm: chain snapshot is not [height, state]")
	}
	height, err := v.List[0].Uint()
	if err != nil {
		return 0, nil, fmt.Errorf("evm: chain snapshot height: %w", err)
	}
	db, err := state.DecodeSnapshot(v.List[1].Bytes)
	if err != nil {
		return 0, nil, err
	}
	return height, db, nil
}
