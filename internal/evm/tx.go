package evm

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync/atomic"

	"repro/internal/abi"
	"repro/internal/keccak"
	"repro/internal/rlp"
	"repro/internal/secp256k1"
	"repro/internal/types"
)

// Transaction is a signed state transition: a method call on a contract (or
// a plain value transfer when Method is empty). Tokens carry the SMACS
// access tokens; on the wire they are appended to the calldata as the
// trailing `bytes[]` argument the SMACS transformation adds (Fig. 4), so
// they are covered by the transaction signature and priced as calldata, but
// excluded from the msg.data that access tokens bind to.
type Transaction struct {
	// Nonce is the sender's account nonce (Ethereum's replay protection).
	Nonce uint64
	// To is the target account.
	To types.Address
	// Value is the ether (wei) transferred with the call.
	Value *big.Int
	// GasLimit caps execution gas.
	GasLimit uint64
	// GasPrice is the price per gas unit in wei.
	GasPrice *big.Int
	// Method and Args describe the call; Args must be ABI-encodable.
	Method string
	Args   []any
	// RawData, when non-nil, is the pre-encoded application calldata
	// (selector ‖ encoded args) and takes precedence over Method/Args.
	// The durability replay path uses it so a logged transaction
	// re-executes byte-identically without re-deriving ABI arguments.
	RawData []byte
	// Tokens is the SMACS token array (one entry per SMACS-enabled
	// contract in the triggered call chain, § IV-D).
	Tokens [][]byte
	// Sig is the sender's secp256k1 signature over SigHash.
	Sig secp256k1.Signature

	// memo caches the last recovered sender, keyed by the signing digest
	// and signature bytes so any post-signing mutation forces a fresh
	// recovery (see Sender).
	memo atomic.Pointer[senderMemo]
	// prep holds the encodings of the Execute call in progress, nil
	// outside one (see prepared).
	prep atomic.Pointer[prepared]
}

// senderMemo is one cached sender recovery. The digest and signature are
// stored alongside the address: a memo is only trusted when both still
// match the transaction's current content.
type senderMemo struct {
	digest types.Hash
	sig    secp256k1.Signature
	sender types.Address
}

// Transaction validation errors.
var (
	ErrNonceTooLow      = errors.New("evm: nonce too low (transaction already processed)")
	ErrNonceTooHigh     = errors.New("evm: nonce too high")
	ErrInsufficientETH  = errors.New("evm: insufficient balance for gas and value")
	ErrBadTxSignature   = errors.New("evm: invalid transaction signature")
	ErrContractNotFound = errors.New("evm: no contract at target address")
	ErrIntrinsicGas     = errors.New("evm: gas limit below intrinsic cost")
)

// AppData returns the application calldata: selector ‖ encoded args,
// excluding the token array. This is the msg.data that argument tokens bind
// to. Calldata binding note: the token array must stay out of it, because
// a token cannot sign bytes that contain the token itself; the array is
// still covered by the transaction signature (SigHash).
//
// During Execute it returns the bytes the call prepared; callers must not
// modify them.
func (tx *Transaction) AppData() ([]byte, error) {
	if p := tx.prep.Load(); p != nil {
		return p.app, nil
	}
	return tx.appData()
}

// appData encodes the application calldata; RawData is returned as is.
func (tx *Transaction) appData() ([]byte, error) {
	if tx.RawData != nil {
		return tx.RawData, nil
	}
	if tx.Method == "" {
		return nil, nil
	}
	return abi.Pack(tx.Method, tx.Args...)
}

// WireData returns the full calldata as priced and signed: the application
// calldata followed by the ABI-encoded token array (when present).
func (tx *Transaction) WireData() ([]byte, error) {
	_, wire, err := tx.calldata()
	return wire, err
}

// calldata returns the application and the wire calldata. Without tokens
// they are the same slice. With tokens, wire is built in one buffer that
// encoded app calldata shares as a capped prefix; it never shares
// RawData's backing array, whose spare capacity appending could write
// into.
func (tx *Transaction) calldata() (app, wire []byte, err error) {
	if len(tx.Tokens) == 0 {
		app, err = tx.appData()
		return app, app, err
	}
	size := abi.EncodedLen(tx.Tokens)
	var buf []byte
	switch {
	case tx.RawData != nil:
		app = tx.RawData
		buf = append(make([]byte, 0, len(app)+size), app...)
	case tx.Method != "":
		size += abi.SelectorLength + abi.EncodedLen(tx.Args...)
		if buf, err = abi.AppendPack(make([]byte, 0, size), tx.Method, tx.Args...); err != nil {
			return nil, nil, err
		}
		app = buf[:len(buf):len(buf)]
	default:
		buf = make([]byte, 0, size)
	}
	wire, err = abi.AppendEncode(buf, tx.Tokens)
	return app, wire, err
}

// rlpFieldsOverhead bounds what the RLP of a transaction adds to its wire
// calldata — list and calldata headers, the fixed fields with 256-bit
// integers, the chain id and the signature — so one buffer of
// len(wire)+rlpFieldsOverhead holds either hashed encoding.
const rlpFieldsOverhead = 256

// SigHash computes the digest the sender signs: an EIP-155-style RLP of the
// transaction fields plus the chain id.
func (tx *Transaction) SigHash(chainID uint64) (types.Hash, error) {
	_, wire, err := tx.calldata()
	if err != nil {
		return types.Hash{}, err
	}
	return tx.sigHash(nil, wire, chainID)
}

// sigHash is SigHash over already-derived wire calldata. The RLP is built
// in scratch's backing array when it is large enough (nil allocates).
func (tx *Transaction) sigHash(scratch, wire []byte, chainID uint64) (types.Hash, error) {
	buf, start := rlp.OpenList(slices.Grow(scratch[:0], len(wire)+rlpFieldsOverhead))
	buf, err := tx.appendFields(buf, wire)
	if err != nil {
		return types.Hash{}, fmt.Errorf("tx sighash: %w", err)
	}
	buf = rlp.AppendUint(buf, chainID)
	buf = rlp.AppendUint(buf, 0)
	buf = rlp.AppendUint(buf, 0)
	return types.Hash(keccak.Sum256(rlp.CloseList(buf, start))), nil
}

// Hash computes the transaction hash (over the signed payload).
func (tx *Transaction) Hash(chainID uint64) (types.Hash, error) {
	_, wire, err := tx.calldata()
	if err != nil {
		return types.Hash{}, err
	}
	return tx.hash(nil, wire, chainID)
}

// hash is Hash over already-derived wire calldata, built like sigHash.
func (tx *Transaction) hash(scratch, wire []byte, chainID uint64) (types.Hash, error) {
	buf, start := rlp.OpenList(slices.Grow(scratch[:0], len(wire)+rlpFieldsOverhead))
	buf, err := tx.appendFields(buf, wire)
	if err != nil {
		return types.Hash{}, fmt.Errorf("tx hash: %w", err)
	}
	buf = rlp.AppendBytes(buf, tx.Sig.Bytes())
	buf = rlp.AppendUint(buf, chainID)
	return types.Hash(keccak.Sum256(rlp.CloseList(buf, start))), nil
}

// appendFields appends the RLP items the signing digest and the hash
// share: nonce, gas price, gas limit, target, value and wire calldata.
func (tx *Transaction) appendFields(dst, wire []byte) ([]byte, error) {
	dst = rlp.AppendUint(dst, tx.Nonce)
	dst, err := rlp.AppendBigInt(dst, tx.GasPrice)
	if err != nil {
		return dst, err
	}
	dst = rlp.AppendUint(dst, tx.GasLimit)
	dst = rlp.AppendBytes(dst, tx.To[:])
	if dst, err = rlp.AppendBigInt(dst, tx.Value); err != nil {
		return dst, err
	}
	return rlp.AppendBytes(dst, wire), nil
}

// prepared is one transaction's encodings for one Execute call: the
// application and wire calldata, the signing digest and the transaction
// hash, all for chainID. Execute builds it once per transaction and clears
// it on return, so sender recovery, the prevalidation hook, every
// execution and the commit record share one encoding instead of each
// re-deriving it.
type prepared struct {
	chainID   uint64
	app, wire []byte
	sigHash   types.Hash
	hash      types.Hash
}

// prepare encodes tx for chainID. It fails exactly where SigHash fails.
func (tx *Transaction) prepare(chainID uint64) (*prepared, error) {
	app, wire, err := tx.calldata()
	if err != nil {
		return nil, err
	}
	scratch := make([]byte, 0, len(wire)+rlpFieldsOverhead)
	sigHash, err := tx.sigHash(scratch, wire, chainID)
	if err != nil {
		return nil, err
	}
	// The hash cannot fail once sigHash succeeded: both append the same
	// fields.
	hash, _ := tx.hash(scratch, wire, chainID)
	return &prepared{chainID: chainID, app: app, wire: wire, sigHash: sigHash, hash: hash}, nil
}

// storePrepared encodes tx for chainID and keeps the record for the rest
// of the Execute call. A transaction that fails to encode keeps none, and
// execution rejects it with the encoding error.
func (tx *Transaction) storePrepared(chainID uint64) {
	p, _ := tx.prepare(chainID)
	tx.prep.Store(p)
}

// preparedFor returns the record Execute prepared for chainID, or nil.
func (tx *Transaction) preparedFor(chainID uint64) *prepared {
	if p := tx.prep.Load(); p != nil && p.chainID == chainID {
		return p
	}
	return nil
}

// signingHash is SigHash, read from the prepared record when there is one.
func (tx *Transaction) signingHash(chainID uint64) (types.Hash, error) {
	if p := tx.preparedFor(chainID); p != nil {
		return p.sigHash, nil
	}
	return tx.SigHash(chainID)
}

// SignTx signs the transaction in place with the given key.
func SignTx(tx *Transaction, key *secp256k1.PrivateKey, chainID uint64) error {
	digest, err := tx.SigHash(chainID)
	if err != nil {
		return err
	}
	sig, err := secp256k1.Sign(key, [32]byte(digest))
	if err != nil {
		return fmt.Errorf("sign tx: %w", err)
	}
	tx.Sig = sig
	return nil
}

// senderRecoveries counts the sender ecrecovers the per-transaction memo
// did not save, process-wide (evm_sender_cache_misses_total).
var senderRecoveries atomic.Uint64

// Sender recovers the transaction originator from the signature.
//
// The recovery is memoized per transaction: the signing digest and the
// signature bytes are recomputed on every call outside Execute (inside,
// the digest is the one Execute prepared), so tampering with any signed
// field after a previous call yields a fresh — different — recovery, but
// the expensive ecrecover is skipped when both match the last recovery.
func (tx *Transaction) Sender(chainID uint64) (types.Address, error) {
	digest, err := tx.signingHash(chainID)
	if err != nil {
		return types.Address{}, err
	}
	return tx.senderFor(digest)
}

// senderFor recovers the sender of the signature over digest, which the
// caller must have derived from the transaction's current fields: the
// memo when it holds this digest and signature, else ecrecover.
func (tx *Transaction) senderFor(digest types.Hash) (types.Address, error) {
	if m := tx.memo.Load(); m != nil && m.digest == digest && m.sig == tx.Sig {
		return m.sender, nil
	}
	senderRecoveries.Add(1)
	addr, err := secp256k1.RecoverAddress([32]byte(digest), tx.Sig)
	if err != nil {
		return types.Address{}, fmt.Errorf("%w: %v", ErrBadTxSignature, err)
	}
	tx.memo.Store(&senderMemo{digest: digest, sig: tx.Sig, sender: addr})
	return addr, nil
}
