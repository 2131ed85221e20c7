package secp256k1

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/types"
)

// SignatureLength is the length of a serialized recoverable signature:
// r (32) ‖ s (32) ‖ v (1).
const SignatureLength = 65

// Signature is a recoverable ECDSA signature in Ethereum's canonical form:
// low-s normalized, with a recovery id V in {0, 1} (27/28 on the wire in
// legacy Ethereum; both conventions are accepted by ParseSignature).
type Signature struct {
	// R and S are the ECDSA signature scalars.
	R, S *big.Int
	// V is the recovery id (0 or 1).
	V byte
}

var (
	// ErrInvalidSignature is returned for malformed or non-canonical
	// signatures (zero/overflowing scalars or high-s form).
	ErrInvalidSignature = errors.New("secp256k1: invalid signature")
	// ErrRecoveryFailed is returned when no valid public key can be
	// recovered from a signature.
	ErrRecoveryFailed = errors.New("secp256k1: public key recovery failed")
)

// Bytes serializes the signature as r ‖ s ‖ v (65 bytes, v in {0, 1}).
func (sig Signature) Bytes() []byte {
	out := make([]byte, SignatureLength)
	sig.R.FillBytes(out[:32])
	sig.S.FillBytes(out[32:64])
	out[64] = sig.V
	return out
}

// ParseSignature parses a 65-byte r ‖ s ‖ v signature. Recovery ids 27/28
// are normalized to 0/1.
func ParseSignature(b []byte) (Signature, error) {
	if len(b) != SignatureLength {
		return Signature{}, fmt.Errorf("%w: length %d, want %d", ErrInvalidSignature, len(b), SignatureLength)
	}
	v := b[64]
	if v >= 27 {
		v -= 27
	}
	if v > 1 {
		return Signature{}, fmt.Errorf("%w: recovery id %d", ErrInvalidSignature, b[64])
	}
	sig := Signature{
		R: new(big.Int).SetBytes(b[:32]),
		S: new(big.Int).SetBytes(b[32:64]),
		V: v,
	}
	if err := sig.validateScalars(); err != nil {
		return Signature{}, err
	}
	return sig, nil
}

// Validate checks that the signature scalars are canonical: 0 < r, s < n
// and s in low form. Callers that serialize a signature before handing it
// to Recover/Verify (for example to build a cache key) should gate on this
// first — Bytes panics on negative or oversized scalars.
func (sig Signature) Validate() error { return sig.validateScalars() }

func (sig Signature) validateScalars() error {
	if sig.R == nil || sig.S == nil {
		return fmt.Errorf("%w: missing scalar", ErrInvalidSignature)
	}
	if sig.R.Sign() <= 0 || sig.R.Cmp(curveN) >= 0 {
		return fmt.Errorf("%w: r out of range", ErrInvalidSignature)
	}
	if sig.S.Sign() <= 0 || sig.S.Cmp(curveN) >= 0 {
		return fmt.Errorf("%w: s out of range", ErrInvalidSignature)
	}
	if sig.S.Cmp(halfN) > 0 {
		return fmt.Errorf("%w: high-s form", ErrInvalidSignature)
	}
	return nil
}

// Sign produces a deterministic (RFC 6979) recoverable signature over the
// 32-byte digest.
func Sign(key *PrivateKey, digest [32]byte) (Signature, error) {
	if key == nil || key.D == nil {
		return Signature{}, ErrInvalidKey
	}
	z := hashToInt(digest)
	gen := newNonceGenerator(key.D, digest)
	for {
		k := gen.next()
		if k == nil {
			continue
		}
		kG := scalarBaseMultComb(k)
		rp := kG.affine()
		r := rp.x.big()
		v := byte(0)
		if rp.y.isOdd() {
			v = 1
		}
		if r.Cmp(curveN) >= 0 {
			v |= 2 // astronomically rare: r overflowed the group order
			r.Sub(r, curveN)
		}
		if r.Sign() == 0 {
			continue
		}
		kInv := new(big.Int).ModInverse(k, curveN)
		s := new(big.Int).Mul(r, key.D)
		s.Add(s, z)
		s.Mul(s, kInv)
		s.Mod(s, curveN)
		if s.Sign() == 0 {
			continue
		}
		if s.Cmp(halfN) > 0 {
			s.Sub(curveN, s)
			v ^= 1
		}
		return Signature{R: r, S: s, V: v}, nil
	}
}

// Verify reports whether sig is a valid (low-s) signature over digest by
// pub.
func Verify(pub PublicKey, digest [32]byte, sig Signature) bool {
	q, ok := pub.point()
	if !ok || sig.validateScalars() != nil {
		return false
	}
	z := hashToInt(digest)
	w := new(big.Int).ModInverse(sig.S, curveN)
	u1 := new(big.Int).Mul(z, w)
	u1.Mod(u1, curveN)
	u2 := new(big.Int).Mul(sig.R, w)
	u2.Mod(u2, curveN)
	sum := shamirMult(u1, &q, u2)
	if sum.isInfinity() {
		return false
	}
	p := sum.affine()
	x := p.x.big()
	return x.Mod(x, curveN).Cmp(sig.R) == 0
}

// recoverEphemeralPoint reconstructs the signing-time ephemeral point R
// from the signature's r scalar and recovery id: x = r (+ n when the
// overflow bit is set) must be a field element with x³ + 7 a square, and
// the parity bit picks the root.
func recoverEphemeralPoint(sig Signature) (affineVal, bool) {
	x := sig.R
	if sig.V&2 != 0 {
		x = new(big.Int).Add(x, curveN)
	}
	var r affineVal
	if !r.x.setBig(x) {
		return affineVal{}, false
	}
	y2 := curveRHS(&r.x)
	if !r.y.sqrt(&y2) {
		return affineVal{}, false
	}
	if r.y.isOdd() != (sig.V&1 == 1) {
		r.y.neg(&r.y)
	}
	if !r.onCurve() {
		return affineVal{}, false
	}
	return r, true
}

// Recover recovers the public key that produced sig over digest. This is
// the pure-Go analogue of the EVM's ecrecover precompile.
func Recover(digest [32]byte, sig Signature) (PublicKey, error) {
	if err := sig.validateScalars(); err != nil {
		return PublicKey{}, err
	}
	r, ok := recoverEphemeralPoint(sig)
	if !ok {
		return PublicKey{}, ErrRecoveryFailed
	}

	// Q = r⁻¹(s·R − z·G) = (−z·r⁻¹)·G + (s·r⁻¹)·R — one table-driven
	// base multiplication plus a single generic multiplication.
	rInv := new(big.Int).ModInverse(sig.R, curveN)
	u1, u2 := recoverScalars(digest, sig, rInv)
	q := shamirMult(u1, &r, u2)
	if q.isInfinity() {
		return PublicKey{}, ErrRecoveryFailed
	}
	qa := q.affine()
	if !qa.onCurve() {
		return PublicKey{}, ErrRecoveryFailed
	}
	return PublicKey{X: qa.x.big(), Y: qa.y.big()}, nil
}

// recoverScalars returns u1 = −z·r⁻¹ and u2 = s·r⁻¹ (mod n), the
// multipliers of G and R in public-key recovery.
func recoverScalars(digest [32]byte, sig Signature, rInv *big.Int) (u1, u2 *big.Int) {
	u1 = hashToInt(digest)
	u1.Mul(u1, rInv)
	u1.Neg(u1)
	u1.Mod(u1, curveN)
	u2 = new(big.Int).Mul(sig.S, rInv)
	u2.Mod(u2, curveN)
	return u1, u2
}

// RecoverAddress recovers the Ethereum address of the signer, the common
// contract-side verification primitive.
func RecoverAddress(digest [32]byte, sig Signature) (types.Address, error) {
	pub, err := Recover(digest, sig)
	if err != nil {
		return types.Address{}, err
	}
	return pub.Address(), nil
}

// hashToInt converts a 32-byte digest to a scalar reduced mod n, following
// the ECDSA convention for a curve whose order has the same bit length as
// the hash.
func hashToInt(digest [32]byte) *big.Int {
	z := new(big.Int).SetBytes(digest[:])
	return z.Mod(z, curveN)
}

// nonceGenerator implements the RFC 6979 deterministic nonce derivation
// with HMAC-SHA256.
type nonceGenerator struct {
	k, v []byte
}

func newNonceGenerator(d *big.Int, digest [32]byte) *nonceGenerator {
	var x [32]byte
	d.FillBytes(x[:])
	h := new(big.Int).SetBytes(digest[:])
	h.Mod(h, curveN)
	var hb [32]byte
	h.FillBytes(hb[:])

	g := &nonceGenerator{k: make([]byte, 32), v: make([]byte, 32)}
	for i := range g.v {
		g.v[i] = 0x01
	}
	g.k = hmacSHA256(g.k, g.v, []byte{0x00}, x[:], hb[:])
	g.v = hmacSHA256(g.k, g.v)
	g.k = hmacSHA256(g.k, g.v, []byte{0x01}, x[:], hb[:])
	g.v = hmacSHA256(g.k, g.v)
	return g
}

// next produces the next candidate nonce, or nil when the candidate falls
// outside [1, n-1] (the caller retries).
func (g *nonceGenerator) next() *big.Int {
	g.v = hmacSHA256(g.k, g.v)
	k := new(big.Int).SetBytes(g.v)
	if k.Sign() > 0 && k.Cmp(curveN) < 0 {
		return k
	}
	g.k = hmacSHA256(g.k, g.v, []byte{0x00})
	g.v = hmacSHA256(g.k, g.v)
	return nil
}

func hmacSHA256(key []byte, chunks ...[]byte) []byte {
	mac := hmac.New(sha256.New, key)
	for _, c := range chunks {
		mac.Write(c)
	}
	return mac.Sum(nil)
}
