package secp256k1

import "math/big"

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

// refSign is Sign with the ephemeral point k·G taken from the reference
// ladder: same RFC 6979 nonce stream, same low-s rule.
func refSign(key *PrivateKey, digest [32]byte) Signature {
	z := hashToInt(digest)
	gen := newNonceGenerator(key.D, digest)
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
		return Signature{R: r, S: s, V: v}
	}
}

// refVerify is Verify with u1·G + u2·Q taken from the reference ladder.
func refVerify(pub PublicKey, digest [32]byte, sig Signature) bool {
	if sig.validateScalars() != nil {
		return false
	}
	w := new(big.Int).ModInverse(sig.S, curveN)
	u1 := hashToInt(digest)
	u1.Mod(u1.Mul(u1, w), curveN)
	u2 := new(big.Int).Mul(sig.R, w)
	u2.Mod(u2, curveN)
	sum := toAffine(doubleScalarMultRef(u1, affinePoint{x: pub.X, y: pub.Y}, u2))
	return !sum.isInfinity() && sum.x.Mod(sum.x, curveN).Cmp(sig.R) == 0
}

// refRecover is Recover on math/big throughout: R from big.ModSqrt, the
// public point from the reference ladder. ok is false where Recover must
// report ErrRecoveryFailed.
func refRecover(digest [32]byte, sig Signature) (pub affinePoint, ok bool) {
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
	u1, u2 := recoverScalars(digest, sig, new(big.Int).ModInverse(sig.R, curveN))
	pub = toAffine(doubleScalarMultRef(u1, affinePoint{x: x, y: y}, u2))
	return pub, !pub.isInfinity()
}
