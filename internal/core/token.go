// Package core implements the SMACS primary contribution: access tokens
// (Fig. 3), token requests (Fig. 2 / Tab. I), the contract-side token
// verification of Alg. 1, the cyclically-reused one-time-token bitmap of
// Alg. 2, and the address-tagged token arrays used for call chains
// (§ IV-D).
package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/abi"
	"repro/internal/keccak"
	"repro/internal/secp256k1"
	"repro/internal/sigcache"
	"repro/internal/types"
)

// TokenType is the permission level of a token (§ IV-A).
type TokenType byte

// Token types, from the widest to the narrowest permission.
const (
	// SuperType grants access to all public methods with arbitrary
	// arguments.
	SuperType TokenType = iota + 1
	// MethodType grants access to one specific method with arbitrary
	// arguments.
	MethodType
	// ArgumentType grants access to one method with one specific argument
	// payload.
	ArgumentType
)

// String implements fmt.Stringer.
func (t TokenType) String() string {
	switch t {
	case SuperType:
		return "super"
	case MethodType:
		return "method"
	case ArgumentType:
		return "argument"
	default:
		return fmt.Sprintf("token-type(%d)", byte(t))
	}
}

// Valid reports whether t is a defined token type.
func (t TokenType) Valid() bool { return t >= SuperType && t <= ArgumentType }

// Token wire layout (Fig. 3): type 1B ‖ expire 4B ‖ index 16B ‖ sig 65B.
const (
	// TokenLength is the serialized token size in bytes.
	TokenLength = 1 + 4 + 16 + secp256k1.SignatureLength
	// NotOneTime is the Index value of tokens without the one-time
	// property (serialized as an all-ones 16-byte field).
	NotOneTime int64 = -1
)

// Token is a SMACS access token: a signed capability binding a client, a
// contract, and (depending on the type) a method and argument payload, with
// an expiry and an optional one-time index.
type Token struct {
	// Type is the permission level.
	Type TokenType
	// Expire is the expiration instant (second precision on the wire).
	Expire time.Time
	// Index is the one-time counter value, or NotOneTime.
	Index int64
	// Signature is the Token Service's signature over Digest.
	Signature secp256k1.Signature
}

// Token parsing and verification errors.
var (
	ErrMalformedToken = newOutcomeError("smacs: malformed token", "malformed_token")
	ErrNoToken        = newOutcomeError("smacs: no token for this contract", "no_token")
	ErrTokenExpired   = newOutcomeError("smacs: token expired", "token_expired")
	ErrTokenUsed      = newOutcomeError("smacs: one-time token already used or missed", "token_used")
	ErrBadTokenSig    = newOutcomeError("smacs: token signature verification failed", "bad_token_sig")
)

// OneTime reports whether the one-time property is set (Index ≥ 0).
func (tk *Token) OneTime() bool { return tk.Index >= 0 }

// Encode serializes the token into the 86-byte layout of Fig. 3.
func (tk *Token) Encode() []byte {
	out := make([]byte, TokenLength)
	tk.put(out)
	return out
}

// put writes the encoding to out[:TokenLength]. Encode stays small enough
// to inline, so a caller that does not keep its result pays no heap.
func (tk *Token) put(out []byte) {
	out[0] = byte(tk.Type)
	binary.BigEndian.PutUint32(out[1:5], uint32(tk.Expire.Unix()))
	encodeIndex(out[5:21], tk.Index)
	copy(out[21:], tk.Signature.Bytes())
}

// ParseToken deserializes an 86-byte token.
func ParseToken(b []byte) (Token, error) {
	if len(b) != TokenLength {
		return Token{}, fmt.Errorf("%w: %d bytes, want %d", ErrMalformedToken, len(b), TokenLength)
	}
	tp := TokenType(b[0])
	if !tp.Valid() {
		return Token{}, fmt.Errorf("%w: unknown type %d", ErrMalformedToken, b[0])
	}
	expire := time.Unix(int64(binary.BigEndian.Uint32(b[1:5])), 0).UTC()
	index, err := decodeIndex(b[5:21])
	if err != nil {
		return Token{}, err
	}
	// Encode writes recovery ids 0/1 only. ParseSignature also takes
	// 27/28, which would give one token two encodings.
	if v := b[TokenLength-1]; v > 1 {
		return Token{}, fmt.Errorf("%w: recovery id %d", ErrMalformedToken, v)
	}
	sig, err := secp256k1.ParseSignature(b[21:])
	if err != nil {
		return Token{}, fmt.Errorf("%w: %v", ErrMalformedToken, err)
	}
	return Token{Type: tp, Expire: expire, Index: index, Signature: sig}, nil
}

// encodeIndex writes the 16-byte index field: a big-endian non-negative
// integer for one-time tokens, all-ones for NotOneTime.
func encodeIndex(dst []byte, index int64) {
	if index < 0 {
		for i := range dst {
			dst[i] = 0xff
		}
		return
	}
	for i := 0; i < 8; i++ {
		dst[i] = 0
	}
	binary.BigEndian.PutUint64(dst[8:], uint64(index))
}

func decodeIndex(b []byte) (int64, error) {
	if b[0]&0x80 != 0 {
		// Negative (two's complement): only the canonical -1 is legal.
		for _, x := range b {
			if x != 0xff {
				return 0, fmt.Errorf("%w: non-canonical negative index", ErrMalformedToken)
			}
		}
		return NotOneTime, nil
	}
	for _, x := range b[:8] {
		if x != 0 {
			return 0, fmt.Errorf("%w: index exceeds int64 range", ErrMalformedToken)
		}
	}
	v := binary.BigEndian.Uint64(b[8:])
	if v > uint64(1)<<62 {
		return 0, fmt.Errorf("%w: index exceeds int64 range", ErrMalformedToken)
	}
	return int64(v), nil
}

// Binding is the transaction context a token is cryptographically bound to.
// The contract rebuilds it from EVM context objects (Alg. 1); the Token
// Service builds it from the client's request.
type Binding struct {
	// Origin is tx.origin — the externally owned account of the client
	// (sAddr in the request).
	Origin types.Address
	// Contract is address(this) (cAddr in the request).
	Contract types.Address
	// Selector is msg.sig; only bound for method and argument tokens.
	Selector abi.Selector
	// Data is msg.data (the application calldata); only bound for
	// argument tokens.
	Data []byte
}

// SigningData assembles the byte string signed by the Token Service:
//
//	type ‖ expire ‖ index ‖ origin ‖ contract [‖ msg.sig [‖ msg.data]]
//
// exactly as Alg. 1 reconstructs it on-chain.
func SigningData(tp TokenType, expire time.Time, index int64, b Binding) []byte {
	return appendSigningData(make([]byte, 0, 61+4+len(b.Data)), tp, expire, index, b)
}

// appendSigningData appends SigningData to out.
func appendSigningData(out []byte, tp TokenType, expire time.Time, index int64, b Binding) []byte {
	out = append(out, byte(tp))
	var exp [4]byte
	binary.BigEndian.PutUint32(exp[:], uint32(expire.Unix()))
	out = append(out, exp[:]...)
	var idx [16]byte
	encodeIndex(idx[:], index)
	out = append(out, idx[:]...)
	out = append(out, b.Origin[:]...)
	out = append(out, b.Contract[:]...)
	switch tp {
	case MethodType:
		out = append(out, b.Selector[:]...)
	case ArgumentType:
		out = append(out, b.Selector[:]...)
		out = append(out, b.Data...)
	}
	return out
}

// Digest hashes the signing data; this is the message signed with skTS and
// verified on-chain via ecrecover.
func Digest(tp TokenType, expire time.Time, index int64, b Binding) types.Hash {
	var buf [256]byte // the signing data of any token whose msg.data fits
	return types.Hash(keccak.Sum256(appendSigningData(buf[:0], tp, expire, index, b)))
}

// SignToken issues a token of the given type over the binding, signed with
// the Token Service key.
func SignToken(key *secp256k1.PrivateKey, tp TokenType, expire time.Time, index int64, b Binding) (Token, error) {
	if !tp.Valid() {
		return Token{}, fmt.Errorf("%w: type %d", ErrMalformedToken, tp)
	}
	digest := Digest(tp, expire, index, b)
	sig, err := secp256k1.Sign(key, [32]byte(digest))
	if err != nil {
		return Token{}, fmt.Errorf("sign token: %w", err)
	}
	return Token{Type: tp, Expire: expire, Index: index, Signature: sig}, nil
}

// VerifySignature checks the token signature against the Token Service
// address (the ecrecover idiom: recover the signer address and compare).
// Recovered signers are memoized by digest ‖ signature (see tokenSigCache),
// so re-presenting the same token for the same binding skips the ecrecover;
// the signer/address comparison always runs.
func (tk *Token) VerifySignature(tsAddr types.Address, b Binding) error {
	digest := Digest(tk.Type, tk.Expire, tk.Index, b)
	key := sigcache.Key([32]byte(digest), tk.Signature.Bytes())
	signer, ok := tokenSigCache.Get(key)
	if !ok {
		var err error
		signer, err = secp256k1.RecoverAddress([32]byte(digest), tk.Signature)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadTokenSig, err)
		}
		tokenSigCache.Add(key, signer)
	}
	if signer != tsAddr {
		return fmt.Errorf("%w: signed by %s, want %s", ErrBadTokenSig, signer, tsAddr)
	}
	return nil
}
