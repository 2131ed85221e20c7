package secp256k1

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/types"
)

// SignatureLength is the length of a serialized recoverable signature:
// r (32) ‖ s (32) ‖ v (1).
const SignatureLength = 65

// Signature is a recoverable ECDSA signature in Ethereum's canonical form:
// low-s normalized, with a recovery id V in {0, 1} (27/28 on the wire in
// legacy Ethereum; both conventions are accepted by ParseSignature).
type Signature struct {
	// R and S are the ECDSA signature scalars as 32-byte big-endian
	// integers.
	R, S [32]byte
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
// It is small enough to inline, so a caller that does not keep the result
// pays no heap.
func (sig Signature) Bytes() []byte {
	out := make([]byte, SignatureLength)
	copy(out[:32], sig.R[:])
	copy(out[32:64], sig.S[:])
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
	sig := Signature{R: [32]byte(b[:32]), S: [32]byte(b[32:64]), V: v}
	if err := sig.Validate(); err != nil {
		return Signature{}, err
	}
	return sig, nil
}

// Validate checks that the signature scalars are canonical: 0 < r, s < n
// and s in low form.
func (sig Signature) Validate() error {
	var r, s scalarVal
	if r.setBytes(&sig.R) || r.isZero() {
		return fmt.Errorf("%w: r out of range", ErrInvalidSignature)
	}
	if s.setBytes(&sig.S) || s.isZero() {
		return fmt.Errorf("%w: s out of range", ErrInvalidSignature)
	}
	if s.isHigh() {
		return fmt.Errorf("%w: high-s form", ErrInvalidSignature)
	}
	return nil
}

// scalars returns r and s as scalars; sig must pass Validate.
func (sig *Signature) scalars() (r, s scalarVal) {
	r.setBytes(&sig.R)
	s.setBytes(&sig.S)
	return r, s
}

// Sign produces a deterministic (RFC 6979) recoverable signature over the
// 32-byte digest. It fails with ErrInvalidKey unless key.D is in [1, n−1].
//
// Its running time depends on the nonce k: the comb skips k's zero
// windows and indexes its table by k's bytes, and the safegcd inverses of
// k and of k·G's Z coordinate take time that depends on their inputs.
func Sign(key *PrivateKey, digest [32]byte) (Signature, error) {
	var d scalarVal
	if key == nil || !d.setBig(key.D) || d.isZero() {
		return Signature{}, ErrInvalidKey
	}
	z := hashToInt(digest)
	gen := newNonceGenerator(&d, &z)
	for {
		k, ok := gen.next()
		if !ok {
			continue
		}
		kG := scalarBaseMultComb(&k)
		rp := kG.affine()
		v := byte(0)
		if rp.y.isOdd() {
			v = 1
		}
		var r scalarVal
		if x := rp.x.bytes(); r.setBytes(&x) {
			v |= 2 // astronomically rare: r overflowed the group order
		}
		if r.isZero() {
			continue
		}
		var s, kInv scalarVal
		kInv.inv(&k)
		s.mul(&r, &d)
		s.add(&s, &z)
		s.mul(&s, &kInv)
		if s.isZero() {
			continue
		}
		if s.isHigh() {
			s.neg(&s)
			v ^= 1
		}
		return Signature{R: r.bytes(), S: s.bytes(), V: v}, nil
	}
}

// Verify reports whether sig is a valid (low-s) signature over digest by
// pub.
func Verify(pub PublicKey, digest [32]byte, sig Signature) bool {
	q, ok := pub.point()
	if !ok || sig.Validate() != nil {
		return false
	}
	r, s := sig.scalars()
	z := hashToInt(digest)
	var w, u1, u2 scalarVal
	w.inv(&s)
	u1.mul(&z, &w)
	u2.mul(&r, &w)
	sum := shamirMult(&u1, &q, &u2)
	if sum.isInfinity() {
		return false
	}
	p := sum.affine()
	var x scalarVal
	xb := p.x.bytes()
	x.setBytes(&xb)
	return x == r
}

// recoverEphemeralPoint reconstructs the signing-time ephemeral point R
// from the signature's r scalar and recovery id: x = r (+ n when the
// overflow bit is set) must be a field element with x³ + 7 a square, and
// the parity bit picks the root. sig must pass Validate.
func recoverEphemeralPoint(sig Signature) (affineVal, bool) {
	x, _ := sig.scalars()
	if sig.V&2 != 0 {
		var c uint64
		for i := range x {
			x[i], c = bits.Add64(x[i], scalarN[i], c)
		}
		if c != 0 {
			return affineVal{}, false
		}
	}
	var r affineVal
	if xb := x.bytes(); !r.x.setBytes(&xb) {
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
	q, err := recoverPoint(digest, sig)
	if err != nil {
		return PublicKey{}, err
	}
	return PublicKey{X: q.x.big(), Y: q.y.big()}, nil
}

// recoverPoint is Recover up to the *big.Int boundary.
func recoverPoint(digest [32]byte, sig Signature) (affineVal, error) {
	if err := sig.Validate(); err != nil {
		return affineVal{}, err
	}
	r, ok := recoverEphemeralPoint(sig)
	if !ok {
		return affineVal{}, ErrRecoveryFailed
	}

	// Q = r⁻¹(s·R − z·G) = (−z·r⁻¹)·G + (s·r⁻¹)·R — one table-driven
	// base multiplication plus a single generic multiplication.
	rs, ss := sig.scalars()
	var rInv scalarVal
	rInv.inv(&rs)
	u1, u2 := recoverScalars(digest, &ss, &rInv)
	q := shamirMult(&u1, &r, &u2)
	if q.isInfinity() {
		return affineVal{}, ErrRecoveryFailed
	}
	qa := q.affine()
	if !qa.onCurve() {
		return affineVal{}, ErrRecoveryFailed
	}
	return qa, nil
}

// recoverScalars returns u1 = −z·r⁻¹ and u2 = s·r⁻¹ (mod n), the
// multipliers of G and R in public-key recovery.
func recoverScalars(digest [32]byte, s, rInv *scalarVal) (u1, u2 scalarVal) {
	u1 = hashToInt(digest)
	u1.mul(&u1, rInv)
	u1.neg(&u1)
	u2.mul(s, rInv)
	return u1, u2
}

// RecoverAddress recovers the Ethereum address of the signer, the common
// contract-side verification primitive.
func RecoverAddress(digest [32]byte, sig Signature) (types.Address, error) {
	q, err := recoverPoint(digest, sig)
	if err != nil {
		return types.Address{}, err
	}
	return q.address(), nil
}

// hashToInt converts a 32-byte digest to a scalar reduced mod n, following
// the ECDSA convention for a curve whose order has the same bit length as
// the hash.
func hashToInt(digest [32]byte) (z scalarVal) {
	z.setBytes(&digest)
	return z
}

// nonceGenerator implements the RFC 6979 deterministic nonce derivation
// (section 3.2) with HMAC-SHA256.
type nonceGenerator struct {
	k, v [32]byte
}

// newNonceGenerator seeds the generator from the private scalar d and the
// reduced digest z (steps b–g).
func newNonceGenerator(d, z *scalarVal) nonceGenerator {
	var g nonceGenerator
	for i := range g.v {
		g.v[i] = 0x01
	}
	// V ‖ sep ‖ int2octets(d) ‖ bits2octets(z)
	var msg [hmacMaxMsg]byte
	x, h := d.bytes(), z.bytes()
	copy(msg[33:], x[:])
	copy(msg[65:], h[:])
	for sep := byte(0); sep < 2; sep++ {
		copy(msg[:32], g.v[:])
		msg[32] = sep
		g.k = hmacSHA256(&g.k, msg[:])
		g.v = hmacSHA256(&g.k, g.v[:])
	}
	return g
}

// next produces the next candidate nonce (step h); ok is false when the
// candidate falls outside [1, n−1] and the caller must retry.
func (g *nonceGenerator) next() (k scalarVal, ok bool) {
	g.v = hmacSHA256(&g.k, g.v[:])
	if !k.setBytes(&g.v) && !k.isZero() {
		return k, true
	}
	g.retry()
	return scalarVal{}, false
}

// retry moves past a rejected candidate: K = HMAC_K(V ‖ 0x00), then
// V = HMAC_K(V) (step h.3).
func (g *nonceGenerator) retry() {
	var msg [33]byte
	copy(msg[:], g.v[:])
	g.k = hmacSHA256(&g.k, msg[:])
	g.v = hmacSHA256(&g.k, g.v[:])
}

// hmacMaxMsg is the longest message the nonce derivation authenticates:
// V ‖ sep ‖ d ‖ z.
const hmacMaxMsg = 32 + 1 + 32 + 32

// hmacSHA256 returns HMAC-SHA256(key, msg) (RFC 2104) for a 32-byte key
// and a message of at most hmacMaxMsg bytes. Both passes hash one stack
// buffer with sha256.Sum256, so nothing is allocated.
func hmacSHA256(key *[32]byte, msg []byte) [32]byte {
	const block = 64 // SHA-256 block size; the key is zero-padded to it
	if len(msg) > hmacMaxMsg {
		panic("secp256k1: HMAC message too long")
	}
	var inner [block + hmacMaxMsg]byte
	var outer [block + sha256.Size]byte
	for i := 0; i < block; i++ {
		inner[i], outer[i] = 0x36, 0x5c
	}
	for i, b := range key {
		inner[i] ^= b
		outer[i] ^= b
	}
	n := copy(inner[block:], msg)
	sum := sha256.Sum256(inner[:block+n])
	copy(outer[block:], sum[:])
	return sha256.Sum256(outer[:])
}
