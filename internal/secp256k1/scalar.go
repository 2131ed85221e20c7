package secp256k1

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// scalarVal is an integer mod the group order
// n = 2^256 − 432420386565659656852420866394968145599, held as four
// little-endian 64-bit limbs and always fully reduced to [0, n). Like
// fieldVal it is a plain value: arithmetic never allocates, and every
// method tolerates its receiver aliasing an operand.
//
// Reduction uses 2^256 ≡ nc (mod n) with nc = 2^256 − n < 2^129: the high
// half of a 512-bit product is multiplied by nc and added to the low half,
// three times over, and one conditional subtraction of n finishes.
type scalarVal [4]uint64

var (
	scalarN  = scalarVal{0xbfd25e8cd0364141, 0xbaaedce6af48a03b, 0xfffffffffffffffe, 0xffffffffffffffff}
	scalarNC = [3]uint64{0x402da1732fc9bebf, 0x4551231950b75fc4, 1}
	// scalarHalfN is ⌊n/2⌋, the largest low-s value.
	scalarHalfN = scalarVal{0xdfe92f46681b20a0, 0x5d576e7357a4501d, 0xffffffffffffffff, 0x7fffffffffffffff}
	scalarOne   = scalarVal{1}
)

// setBytes sets z to the big-endian integer b reduced mod n and reports
// whether b was n or more (and so was reduced).
func (z *scalarVal) setBytes(b *[32]byte) (overflow bool) {
	return z.setReduced(
		binary.BigEndian.Uint64(b[24:32]),
		binary.BigEndian.Uint64(b[16:24]),
		binary.BigEndian.Uint64(b[8:16]),
		binary.BigEndian.Uint64(b[0:8]), 0)
}

// bytes returns z as a 32-byte big-endian integer.
func (z *scalarVal) bytes() (b [32]byte) {
	binary.BigEndian.PutUint64(b[0:8], z[3])
	binary.BigEndian.PutUint64(b[8:16], z[2])
	binary.BigEndian.PutUint64(b[16:24], z[1])
	binary.BigEndian.PutUint64(b[24:32], z[0])
	return b
}

// setBig sets z to v and reports whether v is a scalar (non-nil and in
// [0, n)); otherwise z is zero. It is the inbound half of the *big.Int
// package boundary.
func (z *scalarVal) setBig(v *big.Int) bool {
	if v == nil || v.Sign() < 0 || v.BitLen() > 256 {
		*z = scalarVal{}
		return false
	}
	var b [32]byte
	v.FillBytes(b[:])
	if z.setBytes(&b) {
		*z = scalarVal{}
		return false
	}
	return true
}

// big returns z as a fresh *big.Int, the outbound half of the boundary.
func (z *scalarVal) big() *big.Int {
	b := z.bytes()
	return new(big.Int).SetBytes(b[:])
}

func (z *scalarVal) isZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

// isHigh reports whether z > ⌊n/2⌋, the values low-s normalization negates.
func (z *scalarVal) isHigh() bool {
	_, b := bits.Sub64(scalarHalfN[0], z[0], 0)
	_, b = bits.Sub64(scalarHalfN[1], z[1], b)
	_, b = bits.Sub64(scalarHalfN[2], z[2], b)
	_, b = bits.Sub64(scalarHalfN[3], z[3], b)
	return b != 0
}

// setReduced stores v = carry·2^256 + t, which must be below 2n, reduced to
// [0, n), and reports whether v was reduced. v ≥ n exactly when v + nc
// reaches 2^256, and then v − n is the low 256 bits of that sum.
func (z *scalarVal) setReduced(t0, t1, t2, t3, carry uint64) bool {
	s0, c := bits.Add64(t0, scalarNC[0], 0)
	s1, c := bits.Add64(t1, scalarNC[1], c)
	s2, c := bits.Add64(t2, scalarNC[2], c)
	s3, c := bits.Add64(t3, 0, c)
	m := -(carry | c) // all ones when v ≥ n
	z[0] = t0 ^ (m & (t0 ^ s0))
	z[1] = t1 ^ (m & (t1 ^ s1))
	z[2] = t2 ^ (m & (t2 ^ s2))
	z[3] = t3 ^ (m & (t3 ^ s3))
	return m != 0
}

// add sets z = x + y.
func (z *scalarVal) add(x, y *scalarVal) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, c := bits.Add64(x[3], y[3], c)
	z.setReduced(t0, t1, t2, t3, c)
}

// neg sets z = −x: n − x, or zero for zero.
func (z *scalarVal) neg(x *scalarVal) {
	nz := x[0] | x[1] | x[2] | x[3]
	m := -((nz | -nz) >> 63) // all ones unless x = 0
	t0, b := bits.Sub64(scalarN[0], x[0], 0)
	t1, b := bits.Sub64(scalarN[1], x[1], b)
	t2, b := bits.Sub64(scalarN[2], x[2], b)
	t3, _ := bits.Sub64(scalarN[3], x[3], b)
	z[0], z[1], z[2], z[3] = t0&m, t1&m, t2&m, t3&m
}

// mul512 returns the full 512-bit product x·y, four rows of the schoolbook
// product each added one limb higher than the last.
func mul512(x, y *scalarVal) (r [8]uint64) {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var c uint64
	r[0], r[1], r[2], r[3], r[4] = mulRow(x[0], y0, y1, y2, y3)
	for i := 1; i < 4; i++ {
		t0, t1, t2, t3, t4 := mulRow(x[i], y0, y1, y2, y3)
		r[i], c = bits.Add64(r[i], t0, 0)
		r[i+1], c = bits.Add64(r[i+1], t1, c)
		r[i+2], c = bits.Add64(r[i+2], t2, c)
		r[i+3], c = bits.Add64(r[i+3], t3, c)
		r[i+4] = t4 + c
	}
	return r
}

// mul sets z = x·y.
func (z *scalarVal) mul(x, y *scalarVal) {
	r := mul512(x, y)
	z.reduce512(&r)
}

// foldNC replaces r = hi·2^256 + lo by lo + hi·nc, which is congruent mod
// n. With hi < 2^k the result is below 2^256 + 2^(k+129): three folds take
// any 512-bit value below 2^386, 2^260 and then 2^256 + 2^133.
func foldNC(r *[8]uint64) {
	h0, h1, h2, h3 := r[4], r[5], r[6], r[7]
	a0, a1, a2, a3, a4 := mulRow(scalarNC[0], h0, h1, h2, h3)
	b0, b1, b2, b3, b4 := mulRow(scalarNC[1], h0, h1, h2, h3)
	var c uint64
	// lo + hi·nc[0]
	r[0], c = bits.Add64(r[0], a0, 0)
	r[1], c = bits.Add64(r[1], a1, c)
	r[2], c = bits.Add64(r[2], a2, c)
	r[3], c = bits.Add64(r[3], a3, c)
	r[4], c = bits.Add64(a4, 0, c)
	r[5] = c
	// + hi·nc[1]·2^64
	r[1], c = bits.Add64(r[1], b0, 0)
	r[2], c = bits.Add64(r[2], b1, c)
	r[3], c = bits.Add64(r[3], b2, c)
	r[4], c = bits.Add64(r[4], b3, c)
	r[5], c = bits.Add64(r[5], b4, c)
	r[6] = c
	// + hi·nc[2]·2^128, with nc[2] = 1
	r[2], c = bits.Add64(r[2], h0, 0)
	r[3], c = bits.Add64(r[3], h1, c)
	r[4], c = bits.Add64(r[4], h2, c)
	r[5], c = bits.Add64(r[5], h3, c)
	r[6] += c
	r[7] = 0
}

// reduce512 sets z to the 512-bit value r reduced mod n.
func (z *scalarVal) reduce512(r *[8]uint64) {
	foldNC(r)
	foldNC(r)
	foldNC(r)
	z.setReduced(r[0], r[1], r[2], r[3], r[4]) // r < 2^256 + 2^133 < 2n
}

// inv sets z = x⁻¹ mod n; the inverse of zero is zero. It is modInv, in
// time that depends on x.
func (z *scalarVal) inv(x *scalarVal) {
	*z = modInv((*[4]uint64)(x), &scalarModInfo)
}

// batchInverse replaces every element of xs, all nonzero, with its inverse
// using Montgomery's trick: one inversion plus 3(len−1) multiplications.
func batchInverse(xs []scalarVal) {
	if len(xs) == 0 {
		return
	}
	prefix := make([]scalarVal, len(xs))
	acc := scalarOne
	for i := range xs {
		prefix[i] = acc
		acc.mul(&acc, &xs[i])
	}
	acc.inv(&acc)
	for i := len(xs) - 1; i >= 0; i-- {
		var t scalarVal
		t.mul(&acc, &prefix[i])
		acc.mul(&acc, &xs[i])
		xs[i] = t
	}
}

// GLV split constants (libsecp256k1's scalar_split_lambda): λ, the lattice
// coefficients −b1 and −b2 as scalars, and g1 = round(2^384·b2/n),
// g2 = round(2^384·(−b1)/n).
var (
	glvLambda  = scalarVal{0xdf02967c1b23bd72, 0x122e22ea20816678, 0xa5261c028812645a, 0x5363ad4cc05c30e0}
	glvMinusB1 = scalarVal{0x6f547fa90abfe4c3, 0xe4437ed6010e8828}
	glvMinusB2 = scalarVal{0xd765cda83db1562c, 0x8a280ac50774346d, 0xfffffffffffffffe, 0xffffffffffffffff}
	glvG1      = scalarVal{0xe893209a45dbb031, 0x3daa8a1471e8ca7f, 0xe86c90e49284eb15, 0x3086d221a7d46bcd}
	glvG2      = scalarVal{0x1571b4ae8ac47f71, 0x221208ac9df506c6, 0x6f547fa90abfe4c4, 0xe4437ed6010e8828}
)

// mulShift384 returns round(k·g / 2^384), a value below 2^128 for the GLV
// constants g1 and g2.
func mulShift384(k, g *scalarVal) scalarVal {
	r := mul512(k, g)
	lo, c := bits.Add64(r[6], r[5]>>63, 0)
	return scalarVal{lo, r[7] + c}
}

// splitScalar decomposes k as k ≡ k1 + k2·λ (mod n) with |k1|, |k2| < 2^128,
// returning each half as its magnitude and whether it is negative.
//
// With c1 = round(b2·k/n) and c2 = round(−b1·k/n), k2 = −c1·b1 − c2·b2 and
// k1 = k − k2·λ. Rounding k·g_i / 2^384 instead of the exact quotient moves
// each c_i by less than 2^−128 before rounding, so |k1| ≤ (|a1| + |a2|)/2
// and |k2| ≤ (|b1| + |b2|)/2 still hold, both below 2^128.
func splitScalar(k *scalarVal) (k1, k2 scalarVal, neg1, neg2 bool) {
	c1 := mulShift384(k, &glvG1)
	c2 := mulShift384(k, &glvG2)
	c1.mul(&c1, &glvMinusB1)
	c2.mul(&c2, &glvMinusB2)
	k2.add(&c1, &c2)
	k1.mul(&k2, &glvLambda)
	k1.neg(&k1)
	k1.add(&k1, k)
	if neg1 = k1.isHigh(); neg1 {
		k1.neg(&k1)
	}
	if neg2 = k2.isHigh(); neg2 {
		k2.neg(&k2)
	}
	return k1, k2, neg1, neg2
}
