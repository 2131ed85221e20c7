package secp256k1

// Value-typed curve points over fieldVal: the one group law every fast
// path (wNAF/GLV ladder, comb, multi-scalar batch) runs on. Nothing here
// allocates. The *big.Int ladder in reference_test.go is the reference
// these are tested against.

// affineVal is a point in affine coordinates. (0, 0) is not on the curve
// (b = 7 ≠ 0) and encodes the point at infinity.
type affineVal struct {
	x, y fieldVal
}

// jacobianVal is a point in Jacobian projective coordinates (X/Z², Y/Z³);
// Z == 0 encodes the point at infinity.
type jacobianVal struct {
	x, y, z fieldVal
}

var generator = affineVal{x: mustField(curveGx), y: mustField(curveGy)}

func (p *affineVal) isInfinity() bool { return p.x.isZero() && p.y.isZero() }

func (p *jacobianVal) isInfinity() bool { return p.z.isZero() }

// curveRHS returns x³ + 7, the right-hand side of the curve equation.
func curveRHS(x *fieldVal) (rhs fieldVal) {
	rhs.sqr(x)
	rhs.mul(&rhs, x)
	rhs.add(&rhs, &fieldB)
	return rhs
}

// onCurve reports whether p satisfies y² = x³ + 7 (so never for infinity).
func (p *affineVal) onCurve() bool {
	var lhs fieldVal
	lhs.sqr(&p.y)
	return lhs == curveRHS(&p.x)
}

// jacobian lifts p to Jacobian coordinates.
func (p *affineVal) jacobian() jacobianVal {
	if p.isInfinity() {
		return jacobianVal{}
	}
	return jacobianVal{x: p.x, y: p.y, z: fieldOne}
}

// affine normalizes p with one field inversion.
func (p *jacobianVal) affine() affineVal {
	if p.isInfinity() {
		return affineVal{}
	}
	var zInv fieldVal
	zInv.inv(&p.z)
	return p.scaled(&zInv)
}

// scaled returns the affine form of p given zInv = 1/Z.
func (p *jacobianVal) scaled(zInv *fieldVal) affineVal {
	var zInv2, zInv3 fieldVal
	var out affineVal
	zInv2.sqr(zInv)
	zInv3.mul(&zInv2, zInv)
	out.x.mul(&p.x, &zInv2)
	out.y.mul(&p.y, &zInv3)
	return out
}

// batchAffine normalizes points into out (same length) with a single
// inversion (Montgomery's trick): invert the product of all Z coordinates,
// then peel off each individual Z⁻¹ with two multiplications. Points at
// infinity are skipped and come out as the affine infinity.
func batchAffine(out []affineVal, ps []jacobianVal) {
	// out[i].x temporarily holds the product of the Z's before ps[i].
	acc := fieldOne
	for i := range ps {
		if ps[i].isInfinity() {
			continue
		}
		out[i].x = acc
		acc.mul(&acc, &ps[i].z)
	}
	acc.inv(&acc)
	for i := len(ps) - 1; i >= 0; i-- {
		if ps[i].isInfinity() {
			out[i] = affineVal{}
			continue
		}
		var zInv fieldVal
		zInv.mul(&acc, &out[i].x)
		acc.mul(&acc, &ps[i].z)
		out[i] = ps[i].scaled(&zInv)
	}
}

// double sets p = 2p (a = 0 doubling formulas, 2M + 5S).
func (p *jacobianVal) double() {
	if p.isInfinity() {
		return
	}
	if p.y.isZero() {
		p.z = fieldVal{}
		return
	}
	var a, b, c, d, e, t fieldVal
	a.sqr(&p.x) // A = X²
	b.sqr(&p.y) // B = Y²
	c.sqr(&b)   // C = Y⁴
	d.add(&p.x, &b)
	d.sqr(&d)
	d.sub(&d, &a)
	d.sub(&d, &c)
	d.double(&d) // D = 2((X+B)² − A − C)
	e.double(&a)
	e.add(&e, &a) // E = 3A

	p.z.mul(&p.y, &p.z)
	p.z.double(&p.z) // Z3 = 2YZ

	p.x.sqr(&e)
	t.double(&d)
	p.x.sub(&p.x, &t) // X3 = E² − 2D

	p.y.sub(&d, &p.x)
	p.y.mul(&p.y, &e)
	c.double(&c)
	c.double(&c)
	c.double(&c)
	p.y.sub(&p.y, &c) // Y3 = E(D − X3) − 8C
}

// addMixed sets p = p ± q for an affine q (negated when neg), using the
// mixed-addition formulas (8M + 3S against 12M + 4S for add).
func (p *jacobianVal) addMixed(q *affineVal, neg bool) {
	if q.isInfinity() {
		return
	}
	qy := q.y
	if neg {
		qy.neg(&qy)
	}
	if p.isInfinity() {
		p.x, p.y, p.z = q.x, qy, fieldOne
		return
	}
	var z1z1, h, r fieldVal
	z1z1.sqr(&p.z)
	h.mul(&q.x, &z1z1)
	h.sub(&h, &p.x) // H = U2 − X1
	r.mul(&qy, &p.z)
	r.mul(&r, &z1z1)
	r.sub(&r, &p.y) // R = S2 − Y1
	if h.isZero() {
		if r.isZero() {
			p.double()
		} else {
			p.z = fieldVal{}
		}
		return
	}
	p.z.mul(&p.z, &h) // Z3 = Z1·H
	p.finishAdd(&p.x, &p.y, &h, &r)
}

// add sets p = p + q for general Jacobian points.
func (p *jacobianVal) add(q *jacobianVal) {
	if q.isInfinity() {
		return
	}
	if p.isInfinity() {
		*p = *q
		return
	}
	var z1z1, z2z2, u1, s1, h, r fieldVal
	z1z1.sqr(&p.z)
	z2z2.sqr(&q.z)
	u1.mul(&p.x, &z2z2)
	h.mul(&q.x, &z1z1)
	h.sub(&h, &u1) // H = U2 − U1
	s1.mul(&p.y, &z2z2)
	s1.mul(&s1, &q.z)
	r.mul(&q.y, &z1z1)
	r.mul(&r, &p.z)
	r.sub(&r, &s1) // R = S2 − S1
	if h.isZero() {
		if r.isZero() {
			p.double()
		} else {
			p.z = fieldVal{}
		}
		return
	}
	p.z.mul(&p.z, &q.z)
	p.z.mul(&p.z, &h) // Z3 = Z1·Z2·H
	p.finishAdd(&u1, &s1, &h, &r)
}

// finishAdd is the tail both additions share: with U1, S1 the first
// operand's coordinates on the common denominator,
//
//	X3 = R² − H³ − 2·U1·H²,  Y3 = R·(U1·H² − X3) − S1·H³.
//
// u1 and s1 may alias p.x and p.y.
func (p *jacobianVal) finishAdd(u1, s1, h, r *fieldVal) {
	var h2, h3, v, t fieldVal
	h2.sqr(h)
	h3.mul(&h2, h)
	v.mul(u1, &h2)
	t.mul(s1, &h3)

	p.x.sqr(r)
	p.x.sub(&p.x, &h3)
	p.x.sub(&p.x, &v)
	p.x.sub(&p.x, &v)

	p.y.sub(&v, &p.x)
	p.y.mul(&p.y, r)
	p.y.sub(&p.y, &t)
}
