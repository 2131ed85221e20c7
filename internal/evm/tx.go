package evm

import (
	"errors"
	"fmt"
	"math/big"
	"sync/atomic"

	"repro/internal/abi"
	"repro/internal/keccak"
	"repro/internal/rlp"
	"repro/internal/secp256k1"
	"repro/internal/sigcache"
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
}

// senderMemo is one cached sender recovery. The digest and signature are
// stored alongside the address: a memo is only trusted when both still
// match the transaction's current content.
type senderMemo struct {
	digest types.Hash
	sig    [secp256k1.SignatureLength]byte
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
func (tx *Transaction) AppData() ([]byte, error) {
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
	data, err := tx.AppData()
	if err != nil {
		return nil, err
	}
	return tx.wireData(data)
}

// wireData appends the encoded token array to the application calldata app.
// The result is built in a fresh buffer: appending onto app could write into
// the spare capacity of RawData's backing array.
func (tx *Transaction) wireData(app []byte) ([]byte, error) {
	if len(tx.Tokens) == 0 {
		return app, nil
	}
	blob, err := abi.Encode(tx.Tokens)
	if err != nil {
		return nil, err
	}
	return append(append(make([]byte, 0, len(app)+len(blob)), app...), blob...), nil
}

// SigHash computes the digest the sender signs: an EIP-155-style RLP of the
// transaction fields plus the chain id.
func (tx *Transaction) SigHash(chainID uint64) (types.Hash, error) {
	data, err := tx.WireData()
	if err != nil {
		return types.Hash{}, err
	}
	return tx.sigHash(data, chainID)
}

// sigHash is SigHash over already-derived wire calldata.
func (tx *Transaction) sigHash(wire []byte, chainID uint64) (types.Hash, error) {
	enc, err := rlp.EncodeList(
		tx.Nonce,
		tx.GasPrice,
		tx.GasLimit,
		tx.To.Bytes(),
		tx.Value,
		wire,
		chainID,
		uint64(0),
		uint64(0),
	)
	if err != nil {
		return types.Hash{}, fmt.Errorf("tx sighash: %w", err)
	}
	return types.Hash(keccak.Sum256(enc)), nil
}

// Hash computes the transaction hash (over the signed payload).
func (tx *Transaction) Hash(chainID uint64) (types.Hash, error) {
	data, err := tx.WireData()
	if err != nil {
		return types.Hash{}, err
	}
	return tx.hash(data, chainID)
}

// hash is Hash over already-derived wire calldata.
func (tx *Transaction) hash(wire []byte, chainID uint64) (types.Hash, error) {
	enc, err := rlp.EncodeList(
		tx.Nonce,
		tx.GasPrice,
		tx.GasLimit,
		tx.To.Bytes(),
		tx.Value,
		wire,
		tx.Sig.Bytes(),
		chainID,
	)
	if err != nil {
		return types.Hash{}, fmt.Errorf("tx hash: %w", err)
	}
	return types.Hash(keccak.Sum256(enc)), nil
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

// Sender recovers the transaction originator from the signature.
//
// The recovery is memoized: the signing digest and signature bytes are
// always recomputed (so tampering with any signed field after a previous
// call yields a fresh — different — recovery), but the expensive ecrecover
// is skipped when both match a prior call or the shared sender cache.
func (tx *Transaction) Sender(chainID uint64) (types.Address, error) {
	digest, err := tx.SigHash(chainID)
	if err != nil {
		return types.Address{}, err
	}
	return tx.senderFor(digest)
}

// senderFor recovers the sender of the signature over digest, which the
// caller must have just computed from the transaction's current fields:
// the memo, then the shared sender cache, then ecrecover.
func (tx *Transaction) senderFor(digest types.Hash) (types.Address, error) {
	// Missing or out-of-range scalars skip the cache: Sig.Bytes (the cache
	// key) panics on them, and RecoverAddress below reports them as
	// ErrBadTxSignature.
	cached := tx.Sig.Validate() == nil
	var sigBytes [secp256k1.SignatureLength]byte
	var key string
	if cached {
		copy(sigBytes[:], tx.Sig.Bytes())
		if m := tx.memo.Load(); m != nil && m.digest == digest && m.sig == sigBytes {
			return m.sender, nil
		}
		key = sigcache.Key([32]byte(digest), sigBytes[:])
		if addr, ok := senderCache.Get(key); ok {
			tx.memo.Store(&senderMemo{digest: digest, sig: sigBytes, sender: addr})
			return addr, nil
		}
	}
	addr, err := secp256k1.RecoverAddress([32]byte(digest), tx.Sig)
	if err != nil {
		return types.Address{}, fmt.Errorf("%w: %v", ErrBadTxSignature, err)
	}
	if cached {
		senderCache.Add(key, addr)
		tx.memo.Store(&senderMemo{digest: digest, sig: sigBytes, sender: addr})
	}
	return addr, nil
}
