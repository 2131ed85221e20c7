// Package store provides the durable storage layer beneath the Token
// Service and the simulated chain: an append-only, CRC-framed write-ahead
// log plus point-in-time snapshots, behind a Backend interface with two
// implementations.
//
//   - Memory keeps everything in process memory. It is the pre-durability
//     behaviour refactored behind the interface (a crash loses all state)
//     and doubles as the oracle the property tests compare the file
//     backend against.
//   - File persists the log to an append-only WAL on disk with batched
//     group-commit fsync, and snapshots via atomic rename. Replay
//     tolerates a torn tail: a truncated or corrupted trailing frame is
//     discarded, never surfaced as a record.
//
// The durability contract every consumer builds on: when Append or
// AppendBatch returns nil, every record it was given is on stable
// storage. A ShardedCounter block lease is appended (and synced) before
// any index from the block is handed out, so a crash can burn a leased
// block but never re-issue one; the commit records of a whole
// Chain.Execute batch are appended in one AppendBatch before Execute (or
// Apply, a batch of one) acknowledges any of its transactions, so an
// acknowledged transaction is never lost.
//
// A batch is durable as a whole but not atomic: a crash during an
// AppendBatch may leave any prefix of its records on disk, and replay
// returns that prefix. Consumers rely only on order — none of the batch
// was acknowledged, and a prefix of a serial history is itself a valid
// serial history (a prefix of a block's transactions, a prefix of a
// range ledger's adoptions).
package store

import "errors"

// RecordKind discriminates WAL records. The zero value is invalid so that
// a zeroed frame can never decode into a meaningful record.
type RecordKind uint8

const (
	// KindLease records a one-time-index block lease by the Token
	// Service's counter: Value is the leased block id. Replay resumes
	// allocation strictly above the highest durable lease, burning any
	// partially-used blocks (see OpenCounter).
	KindLease RecordKind = iota + 1
	// KindMark records a one-time token index observed as used. The chain
	// reconstructs bitmap state by replaying committed transactions, so
	// KindMark is used by lighter-weight consumers (and the property
	// tests) that track the used-index set directly.
	KindMark
	// KindCommit records a committed chain transaction: Data holds the
	// evm commit-record encoding (transaction plus block time), Value the
	// block height it mined.
	KindCommit
	// KindEpoch records a coordinator epoch promised by a Token Service
	// counter replica (replica/net): Value is the epoch. Journaling the
	// promise alongside KindLease grants keeps epoch fencing effective
	// across a replica restart — a rejoined replica still rejects
	// proposals from coordinators it already promised away from.
	KindEpoch
	// KindView records an adopted replica-group membership view: Value is
	// the view epoch, Data the JSON-encoded view state (group set,
	// watermark, adopted base sequence, frontend URLs). A frontend replays
	// the highest-epoch view at startup so a restart resumes under the
	// membership it last served, not the one it booted with.
	KindView
	// KindReclaim records an inclusive range of one-time indexes released
	// back by a cleanly shutting-down frontend (unexhausted block-lease
	// remainders): Value is the range start, Data the 8-byte big-endian
	// range end. A reclaim is an offer, not a grant — the range may be
	// re-issued only after a KindAdopt for it is durable.
	KindReclaim
	// KindAdopt marks a previously reclaimed range as re-leased to the
	// current incarnation (same encoding as KindReclaim). Persisting the
	// adoption BEFORE any index of the range is re-issued keeps recovery
	// at-most-once: a crash after adoption burns the range (replay sees
	// reclaim+adopt and offers nothing), it never offers it twice.
	KindAdopt
	// kindEnd is one past the last valid kind.
	kindEnd
)

// Record is one WAL entry: a kind, a small integer payload (block id,
// index, or height), and an optional opaque data blob.
type Record struct {
	Kind  RecordKind
	Value int64
	Data  []byte
}

// Valid reports whether the record carries a known kind.
func (r Record) Valid() bool { return r.Kind >= KindLease && r.Kind < kindEnd }

// ErrClosed is returned by operations on a closed backend.
var ErrClosed = errors.New("store: backend is closed")

// Backend is the durable storage interface: an append-only record log
// with point-in-time snapshots.
//
// Append and AppendBatch must be durable on return and safe for
// concurrent use; a batch's records stay contiguous and in order, and an
// invalid record rejects its whole batch before any of it is queued.
// Snapshot atomically persists an opaque state blob and logically
// truncates the log: a subsequent Replay returns the latest snapshot plus
// only the records appended after it. Replay is intended to be called
// once, on a freshly opened backend, before any Append.
type Backend interface {
	// Append durably adds one record to the log.
	Append(rec Record) error
	// AppendBatch durably adds recs to the log, in order, as one write
	// and one sync. After a crash mid-call, Replay may return any prefix
	// of recs. An empty batch is a no-op.
	AppendBatch(recs []Record) error
	// Snapshot durably persists blob as the new recovery base and drops
	// records that predate it from future Replays.
	Snapshot(blob []byte) error
	// Replay returns the most recent snapshot blob (nil if none was ever
	// taken) and the records appended after it, in append order.
	Replay() (snapshot []byte, records []Record, err error)
	// Close releases resources. Appending to a closed backend fails.
	Close() error
}
