// Package secp256k1 implements the secp256k1 elliptic curve and the
// recoverable ECDSA signature scheme used by Ethereum: deterministic
// (RFC 6979) nonces, low-s normalization, 65-byte r‖s‖v signatures, and
// public-key recovery (ecrecover). The implementation is pure Go, standard
// library only. Curve arithmetic runs on an allocation-free 4×64-bit field
// type (field.go, point.go) under a wNAF/GLV ladder for verification and
// recovery and a fixed-base comb for signing; *big.Int appears only at the
// exported boundary (keys and signature scalars), in scalar arithmetic mod
// the group order, and in the double-and-add reference ladder below, which
// SetFastMult(false) selects and the differential tests compare against.
package secp256k1

import "math/big"

// Curve parameters for secp256k1: y² = x³ + 7 over F_p.
var (
	curveP  = mustBig("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
	curveN  = mustBig("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
	curveGx = mustBig("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
	curveGy = mustBig("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")
	halfN   = new(big.Int).Rsh(curveN, 1)
)

func mustBig(hex string) *big.Int {
	v, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		panic("secp256k1: bad curve constant " + hex)
	}
	return v
}

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

// val normalizes a reference-ladder result and lifts it back to Jacobian
// coordinates over fieldVal.
func (p jacobianPoint) val() jacobianVal {
	a := toAffine(p).val()
	return a.jacobian()
}
