package secp256k1

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/big"
)

// The math/big reference implementation of the group law: a Jacobian
// double-and-add ladder that shares no code with the fieldVal paths the
// package ships. It is the oracle of the differential tests and of
// FuzzDoubleScalarMultDifferential, and is compiled only into the test
// binary.

// jacobianPoint is a point in Jacobian projective coordinates
// (X/Z², Y/Z³). Z == 0 encodes the point at infinity.
type jacobianPoint struct {
	x, y, z *big.Int
}

// affinePoint is a point in affine coordinates. The zero value (nil
// coordinates) encodes the point at infinity.
type affinePoint struct {
	x, y *big.Int
}

func (p affinePoint) isInfinity() bool { return p.x == nil }

func newInfinity() jacobianPoint {
	return jacobianPoint{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
}

func (p jacobianPoint) isInfinity() bool { return p.z.Sign() == 0 }

func fromAffine(p affinePoint) jacobianPoint {
	if p.isInfinity() {
		return newInfinity()
	}
	return jacobianPoint{x: new(big.Int).Set(p.x), y: new(big.Int).Set(p.y), z: big.NewInt(1)}
}

func toAffine(p jacobianPoint) affinePoint {
	if p.isInfinity() {
		return affinePoint{}
	}
	zInv := new(big.Int).ModInverse(p.z, curveP)
	zInv2 := new(big.Int).Mul(zInv, zInv)
	zInv2.Mod(zInv2, curveP)
	x := new(big.Int).Mul(p.x, zInv2)
	x.Mod(x, curveP)
	zInv3 := zInv2.Mul(zInv2, zInv)
	zInv3.Mod(zInv3, curveP)
	y := new(big.Int).Mul(p.y, zInv3)
	y.Mod(y, curveP)
	return affinePoint{x: x, y: y}
}

func modP(v *big.Int) *big.Int { return v.Mod(v, curveP) }

// doubleJacobian doubles p using the a=0 doubling formulas.
func doubleJacobian(p jacobianPoint) jacobianPoint {
	if p.isInfinity() || p.y.Sign() == 0 {
		return newInfinity()
	}
	a := new(big.Int).Mul(p.x, p.x) // X²
	modP(a)
	b := new(big.Int).Mul(p.y, p.y) // Y²
	modP(b)
	c := new(big.Int).Mul(b, b) // Y⁴
	modP(c)

	d := new(big.Int).Add(p.x, b) // (X+Y²)² - X² - Y⁴
	d.Mul(d, d)
	modP(d)
	d.Sub(d, a)
	d.Sub(d, c)
	d.Lsh(d, 1) // ×2
	modP(d)

	e := new(big.Int).Lsh(a, 1) // 3X²
	e.Add(e, a)
	modP(e)

	x3 := new(big.Int).Mul(e, e)
	modP(x3)
	x3.Sub(x3, new(big.Int).Lsh(d, 1))
	modP(x3)

	y3 := new(big.Int).Sub(d, x3)
	y3.Mul(y3, e)
	modP(y3)
	c.Lsh(c, 3) // 8Y⁴
	y3.Sub(y3, c)
	modP(y3)

	z3 := new(big.Int).Mul(p.y, p.z)
	z3.Lsh(z3, 1)
	modP(z3)

	return jacobianPoint{x: x3, y: y3, z: z3}
}

// addJacobian computes p + q for general Jacobian points.
func addJacobian(p, q jacobianPoint) jacobianPoint {
	if p.isInfinity() {
		return q
	}
	if q.isInfinity() {
		return p
	}
	z1z1 := new(big.Int).Mul(p.z, p.z)
	modP(z1z1)
	z2z2 := new(big.Int).Mul(q.z, q.z)
	modP(z2z2)
	u1 := new(big.Int).Mul(p.x, z2z2)
	modP(u1)
	u2 := new(big.Int).Mul(q.x, z1z1)
	modP(u2)
	s1 := new(big.Int).Mul(p.y, z2z2)
	s1.Mul(s1, q.z)
	modP(s1)
	s2 := new(big.Int).Mul(q.y, z1z1)
	s2.Mul(s2, p.z)
	modP(s2)

	h := new(big.Int).Sub(u2, u1)
	h.Mod(h, curveP)
	r := new(big.Int).Sub(s2, s1)
	r.Mod(r, curveP)
	if h.Sign() == 0 {
		if r.Sign() == 0 {
			return doubleJacobian(p)
		}
		return newInfinity()
	}

	h2 := new(big.Int).Mul(h, h)
	modP(h2)
	h3 := new(big.Int).Mul(h2, h)
	modP(h3)
	u1h2 := new(big.Int).Mul(u1, h2)
	modP(u1h2)

	x3 := new(big.Int).Mul(r, r)
	modP(x3)
	x3.Sub(x3, h3)
	x3.Sub(x3, new(big.Int).Lsh(u1h2, 1))
	x3.Mod(x3, curveP)

	y3 := new(big.Int).Sub(u1h2, x3)
	y3.Mul(y3, r)
	modP(y3)
	s1h3 := new(big.Int).Mul(s1, h3)
	modP(s1h3)
	y3.Sub(y3, s1h3)
	y3.Mod(y3, curveP)

	z3 := new(big.Int).Mul(p.z, q.z)
	modP(z3)
	z3.Mul(z3, h)
	modP(z3)

	return jacobianPoint{x: x3, y: y3, z: z3}
}

// scalarMult computes k·P for an affine point P using a simple left-to-right
// double-and-add ladder. k is reduced mod the group order by the callers.
func scalarMult(p affinePoint, k *big.Int) jacobianPoint {
	acc := newInfinity()
	jp := fromAffine(p)
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = doubleJacobian(acc)
		if k.Bit(i) == 1 {
			acc = addJacobian(acc, jp)
		}
	}
	return acc
}

// scalarBaseMult computes k·G on the reference ladder.
func scalarBaseMult(k *big.Int) jacobianPoint {
	return scalarMult(affinePoint{x: curveGx, y: curveGy}, k)
}

// ref converts p to the reference representation.
func (p *affineVal) ref() affinePoint {
	if p.isInfinity() {
		return affinePoint{}
	}
	return affinePoint{x: p.x.big(), y: p.y.big()}
}

// val converts a reference point, whose coordinates are reduced mod p, to
// the field representation.
func (p affinePoint) val() affineVal {
	if p.isInfinity() {
		return affineVal{}
	}
	return affineVal{x: mustField(p.x), y: mustField(p.y)}
}

// doubleScalarMultRef is the reference evaluation of u1·G + u2·P; the
// differential tests pin shamirMult against it.
func doubleScalarMultRef(u1 *big.Int, p affinePoint, u2 *big.Int) jacobianPoint {
	return addJacobian(scalarBaseMult(u1), scalarMult(p, u2))
}

// refSign is Sign on math/big throughout: the crypto/hmac nonce stream,
// the ephemeral point k·G from the reference ladder, the same low-s rule.
func refSign(key *PrivateKey, digest [32]byte) Signature {
	z := refHashToInt(digest)
	gen := newRefNonceGenerator(key.D, digest)
	for {
		k := gen.next()
		if k == nil {
			continue
		}
		rp := toAffine(scalarBaseMult(k))
		r := new(big.Int).Mod(rp.x, curveN)
		v := byte(rp.y.Bit(0))
		if rp.x.Cmp(curveN) >= 0 {
			v |= 2
		}
		s := new(big.Int).Mul(r, key.D)
		s.Add(s, z)
		s.Mul(s, new(big.Int).ModInverse(k, curveN))
		s.Mod(s, curveN)
		if r.Sign() == 0 || s.Sign() == 0 {
			continue
		}
		if s.Cmp(halfN) > 0 {
			s.Sub(curveN, s)
			v ^= 1
		}
		return sigOf(r, s, v)
	}
}

// refVerify is Verify with u1·G + u2·Q taken from the reference ladder.
func refVerify(pub PublicKey, digest [32]byte, signature Signature) bool {
	sig := refOf(signature)
	if sig.validateScalars() != nil {
		return false
	}
	w := new(big.Int).ModInverse(sig.S, curveN)
	u1 := refHashToInt(digest)
	u1.Mod(u1.Mul(u1, w), curveN)
	u2 := new(big.Int).Mul(sig.R, w)
	u2.Mod(u2, curveN)
	sum := toAffine(doubleScalarMultRef(u1, affinePoint{x: pub.X, y: pub.Y}, u2))
	return !sum.isInfinity() && sum.x.Mod(sum.x, curveN).Cmp(sig.R) == 0
}

// refRecover is Recover on math/big throughout: R from big.ModSqrt, the
// public point from the reference ladder. ok is false where Recover must
// report ErrRecoveryFailed.
func refRecover(digest [32]byte, signature Signature) (pub affinePoint, ok bool) {
	sig := refOf(signature)
	x := new(big.Int).Set(sig.R)
	if sig.V&2 != 0 {
		x.Add(x, curveN)
	}
	if x.Cmp(curveP) >= 0 {
		return affinePoint{}, false
	}
	y2 := new(big.Int).Exp(x, big.NewInt(3), curveP)
	y2.Add(y2, big.NewInt(7))
	y := new(big.Int).ModSqrt(y2.Mod(y2, curveP), curveP)
	if y == nil {
		return affinePoint{}, false
	}
	if y.Bit(0) != uint(sig.V&1) {
		y.Sub(curveP, y)
	}
	u1, u2 := refRecoverScalars(digest, sig, new(big.Int).ModInverse(sig.R, curveN))
	pub = toAffine(doubleScalarMultRef(u1, affinePoint{x: x, y: y}, u2))
	return pub, !pub.isInfinity()
}

// The math/big Signature the package shipped before its scalars became
// fixed-width bytes: parse, validate and serialize kept verbatim
// (renamed) as the oracle of FuzzSignatureDifferential, and the form the
// reference sign, verify and recover paths compute on.

// curveN is the group order n, halfN ⌊n/2⌋, the largest low-s value.
var (
	curveN = mustBig("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
	halfN  = new(big.Int).Rsh(curveN, 1)
)

// refSignature is Signature with *big.Int scalars.
type refSignature struct {
	// R and S are the ECDSA signature scalars.
	R, S *big.Int
	// V is the recovery id (0 or 1).
	V byte
}

// Bytes serializes the signature as r ‖ s ‖ v (65 bytes, v in {0, 1}).
func (sig refSignature) Bytes() []byte {
	out := make([]byte, SignatureLength)
	sig.R.FillBytes(out[:32])
	sig.S.FillBytes(out[32:64])
	out[64] = sig.V
	return out
}

// refParseSignature parses a 65-byte r ‖ s ‖ v signature. Recovery ids
// 27/28 are normalized to 0/1.
func refParseSignature(b []byte) (refSignature, error) {
	if len(b) != SignatureLength {
		return refSignature{}, fmt.Errorf("%w: length %d, want %d", ErrInvalidSignature, len(b), SignatureLength)
	}
	v := b[64]
	if v >= 27 {
		v -= 27
	}
	if v > 1 {
		return refSignature{}, fmt.Errorf("%w: recovery id %d", ErrInvalidSignature, b[64])
	}
	sig := refSignature{
		R: new(big.Int).SetBytes(b[:32]),
		S: new(big.Int).SetBytes(b[32:64]),
		V: v,
	}
	if err := sig.validateScalars(); err != nil {
		return refSignature{}, err
	}
	return sig, nil
}

func (sig refSignature) validateScalars() error {
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

// refOf returns sig with its scalars as *big.Int.
func refOf(sig Signature) refSignature {
	return refSignature{R: bigOf(sig.R), S: bigOf(sig.S), V: sig.V}
}

// sigOf builds a Signature from scalars in [0, 2²⁵⁶).
func sigOf(r, s *big.Int, v byte) Signature {
	return Signature{R: scalarBytes(r), S: scalarBytes(s), V: v}
}

// bigOf returns the big-endian integer b.
func bigOf(b [32]byte) *big.Int { return new(big.Int).SetBytes(b[:]) }

// scalarBytes returns v, which must be in [0, 2²⁵⁶), as 32 big-endian
// bytes; FillBytes panics on any other value.
func scalarBytes(v *big.Int) (b [32]byte) {
	v.FillBytes(b[:])
	return b
}

// The math/big scalar arithmetic mod n that scalarVal replaced, kept
// verbatim (renamed) as the oracle of the scalar, GLV-split and nonce
// differential tests.

// GLV endomorphism constants. λ is a cube root of unity mod n and β the
// matching cube root of unity mod p: λ·(x, y) = (β·x, y) for every curve
// point. (a1, b1) and (a2, b2) are short lattice vectors with
// a_i + b_i·λ ≡ 0 (mod n), so any rounding in refSplitScalar still yields
// a congruent decomposition (only the half-scalar magnitudes depend on
// it).
var (
	bigGLVLambda = mustBig("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72")
	bigGLVBeta   = mustBig("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee")
	bigGLVA1     = mustBig("3086d221a7d46bcde86c90e49284eb15")
	bigGLVNegB1  = mustBig("e4437ed6010e88286f547fa90abfe4c3")
	bigGLVA2     = mustBig("114ca50f7a8e2f3f657c1108d9d44cfd8")
	bigGLVB2     = mustBig("3086d221a7d46bcde86c90e49284eb15")
)

// refRoundDiv returns round(x / n) for x ≥ 0 and odd n.
func refRoundDiv(x, n *big.Int) *big.Int {
	r := new(big.Int).Rsh(n, 1)
	r.Add(r, x)
	return r.Div(r, n)
}

// refSplitScalar decomposes k (mod n) as k ≡ k1 + k2·λ with |k1|, |k2| ≈ √n.
func refSplitScalar(k *big.Int) (k1, k2 *big.Int) {
	c1 := refRoundDiv(new(big.Int).Mul(bigGLVB2, k), curveN)
	c2 := refRoundDiv(new(big.Int).Mul(bigGLVNegB1, k), curveN)
	k1 = new(big.Int).Mul(c1, bigGLVA1)
	k1.Add(k1, new(big.Int).Mul(c2, bigGLVA2))
	k1.Sub(k, k1)
	k2 = new(big.Int).Mul(c1, bigGLVNegB1)
	k2.Sub(k2, new(big.Int).Mul(c2, bigGLVB2))
	return k1, k2
}

// refBatchModInverse replaces every element of xs with its inverse mod m
// using Montgomery's trick: one ModInverse plus 3(n−1) multiplications.
// Returns false (leaving xs unspecified) if any element is not
// invertible.
func refBatchModInverse(xs []*big.Int, m *big.Int) bool {
	switch len(xs) {
	case 0:
		return true
	case 1:
		return xs[0].ModInverse(xs[0], m) != nil
	}
	prefix := make([]big.Int, len(xs))
	acc, t := big.NewInt(1), new(big.Int)
	for i, x := range xs {
		prefix[i].Set(acc)
		acc.Mod(t.Mul(acc, x), m)
	}
	inv := new(big.Int).ModInverse(acc, m)
	if inv == nil {
		return false
	}
	for i := len(xs) - 1; i >= 0; i-- {
		t.Mul(inv, &prefix[i])
		inv.Mod(acc.Mul(inv, xs[i]), m)
		xs[i].Mod(t, m)
	}
	return true
}

// refRecoverScalars returns u1 = −z·r⁻¹ and u2 = s·r⁻¹ (mod n), the
// multipliers of G and R in public-key recovery.
func refRecoverScalars(digest [32]byte, sig refSignature, rInv *big.Int) (u1, u2 *big.Int) {
	u1 = refHashToInt(digest)
	u1.Mul(u1, rInv)
	u1.Neg(u1)
	u1.Mod(u1, curveN)
	u2 = new(big.Int).Mul(sig.S, rInv)
	u2.Mod(u2, curveN)
	return u1, u2
}

// refHashToInt converts a 32-byte digest to a scalar reduced mod n,
// following the ECDSA convention for a curve whose order has the same bit
// length as the hash.
func refHashToInt(digest [32]byte) *big.Int {
	z := new(big.Int).SetBytes(digest[:])
	return z.Mod(z, curveN)
}

// refNonceGenerator implements the RFC 6979 deterministic nonce derivation
// with HMAC-SHA256.
type refNonceGenerator struct {
	k, v []byte
}

func newRefNonceGenerator(d *big.Int, digest [32]byte) *refNonceGenerator {
	var x [32]byte
	d.FillBytes(x[:])
	h := new(big.Int).SetBytes(digest[:])
	h.Mod(h, curveN)
	var hb [32]byte
	h.FillBytes(hb[:])

	g := &refNonceGenerator{k: make([]byte, 32), v: make([]byte, 32)}
	for i := range g.v {
		g.v[i] = 0x01
	}
	g.k = refHMACSHA256(g.k, g.v, []byte{0x00}, x[:], hb[:])
	g.v = refHMACSHA256(g.k, g.v)
	g.k = refHMACSHA256(g.k, g.v, []byte{0x01}, x[:], hb[:])
	g.v = refHMACSHA256(g.k, g.v)
	return g
}

// next produces the next candidate nonce, or nil when the candidate falls
// outside [1, n-1] (the caller retries).
func (g *refNonceGenerator) next() *big.Int {
	g.v = refHMACSHA256(g.k, g.v)
	k := new(big.Int).SetBytes(g.v)
	if k.Sign() > 0 && k.Cmp(curveN) < 0 {
		return k
	}
	g.k = refHMACSHA256(g.k, g.v, []byte{0x00})
	g.v = refHMACSHA256(g.k, g.v)
	return nil
}

func refHMACSHA256(key []byte, chunks ...[]byte) []byte {
	mac := hmac.New(sha256.New, key)
	for _, c := range chunks {
		mac.Write(c)
	}
	return mac.Sum(nil)
}
