package secp256k1

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// fieldVal is an element of F_p for the secp256k1 prime
// p = 2^256 − 2^32 − 977, held as four little-endian 64-bit limbs and
// always fully reduced to [0, p). It is a plain value: arithmetic never
// allocates, and every method tolerates its receiver aliasing an operand.
//
// Reduction uses 2^256 ≡ pFold (mod p): the high half of a 512-bit product
// is multiplied by pFold and added to the low half, the (≤ 34-bit) overflow
// of that sum is folded once more, and one conditional subtraction of p
// finishes.
type fieldVal [4]uint64

const pFold = 1<<32 + 977

var (
	fieldOne = fieldVal{1}
	fieldB   = fieldVal{7}
)

// mustField converts a constant or reference-ladder value known to lie in
// [0, p).
func mustField(v *big.Int) (z fieldVal) {
	if !z.setBig(v) {
		panic("secp256k1: value is not a field element")
	}
	return z
}

// setBytes sets z to the big-endian integer b and reports whether b < p.
// Out-of-range input leaves z zero.
func (z *fieldVal) setBytes(b *[32]byte) bool {
	z[3] = binary.BigEndian.Uint64(b[0:8])
	z[2] = binary.BigEndian.Uint64(b[8:16])
	z[1] = binary.BigEndian.Uint64(b[16:24])
	z[0] = binary.BigEndian.Uint64(b[24:32])
	// z ≥ p exactly when z + pFold reaches 2^256.
	_, c := bits.Add64(z[0], pFold, 0)
	_, c = bits.Add64(z[1], 0, c)
	_, c = bits.Add64(z[2], 0, c)
	_, c = bits.Add64(z[3], 0, c)
	if c != 0 {
		*z = fieldVal{}
		return false
	}
	return true
}

// bytes returns z as a 32-byte big-endian integer.
func (z *fieldVal) bytes() (b [32]byte) {
	binary.BigEndian.PutUint64(b[0:8], z[3])
	binary.BigEndian.PutUint64(b[8:16], z[2])
	binary.BigEndian.PutUint64(b[16:24], z[1])
	binary.BigEndian.PutUint64(b[24:32], z[0])
	return b
}

// setBig sets z to v and reports whether v is a field element (non-nil and
// in [0, p)). It is the inbound half of the *big.Int package boundary.
func (z *fieldVal) setBig(v *big.Int) bool {
	if v == nil || v.Sign() < 0 || v.BitLen() > 256 {
		*z = fieldVal{}
		return false
	}
	var b [32]byte
	v.FillBytes(b[:])
	return z.setBytes(&b)
}

// big returns z as a fresh *big.Int, the outbound half of the boundary.
func (z *fieldVal) big() *big.Int {
	b := z.bytes()
	return new(big.Int).SetBytes(b[:])
}

func (z *fieldVal) isZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

func (z *fieldVal) isOdd() bool { return z[0]&1 == 1 }

// setReduced stores v = carry·2^256 + t, which must be below 2p, reduced to
// [0, p). v ≥ p exactly when v + pFold reaches 2^256, and then v − p is the
// low 256 bits of that sum.
func (z *fieldVal) setReduced(t0, t1, t2, t3, carry uint64) {
	s0, c := bits.Add64(t0, pFold, 0)
	s1, c := bits.Add64(t1, 0, c)
	s2, c := bits.Add64(t2, 0, c)
	s3, c := bits.Add64(t3, 0, c)
	m := -(carry | c) // all ones when v ≥ p
	z[0] = t0 ^ (m & (t0 ^ s0))
	z[1] = t1 ^ (m & (t1 ^ s1))
	z[2] = t2 ^ (m & (t2 ^ s2))
	z[3] = t3 ^ (m & (t3 ^ s3))
}

// add sets z = x + y.
func (z *fieldVal) add(x, y *fieldVal) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, c := bits.Add64(x[3], y[3], c)
	z.setReduced(t0, t1, t2, t3, c)
}

// sub sets z = x − y. A borrow leaves x − y + 2^256 in the limbs; taking
// pFold off that is x − y + p.
func (z *fieldVal) sub(x, y *fieldVal) {
	t0, b := bits.Sub64(x[0], y[0], 0)
	t1, b := bits.Sub64(x[1], y[1], b)
	t2, b := bits.Sub64(x[2], y[2], b)
	t3, b := bits.Sub64(x[3], y[3], b)
	t0, b = bits.Sub64(t0, -b&pFold, 0)
	t1, b = bits.Sub64(t1, 0, b)
	t2, b = bits.Sub64(t2, 0, b)
	t3, _ = bits.Sub64(t3, 0, b)
	z[0], z[1], z[2], z[3] = t0, t1, t2, t3
}

// neg sets z = −x.
func (z *fieldVal) neg(x *fieldVal) { z.sub(&fieldVal{}, x) }

// double sets z = 2x.
func (z *fieldVal) double(x *fieldVal) { z.add(x, x) }

// mulRow returns a·(y3 y2 y1 y0) as five limbs. The four products are
// independent and their halves are summed in one carry chain; the top limb
// cannot overflow because the whole product is below 2^320.
func mulRow(a, y0, y1, y2, y3 uint64) (t0, t1, t2, t3, t4 uint64) {
	h0, t0 := bits.Mul64(a, y0)
	h1, l1 := bits.Mul64(a, y1)
	h2, l2 := bits.Mul64(a, y2)
	h3, l3 := bits.Mul64(a, y3)
	t1, c := bits.Add64(l1, h0, 0)
	t2, c = bits.Add64(l2, h1, c)
	t3, c = bits.Add64(l3, h2, c)
	return t0, t1, t2, t3, h3 + c
}

// mul sets z = x·y: four rows of the schoolbook product, each added into
// the running 512-bit result one limb higher than the last.
func (z *fieldVal) mul(x, y *fieldVal) {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var c uint64
	r0, r1, r2, r3, r4 := mulRow(x[0], y0, y1, y2, y3)

	t0, t1, t2, t3, t4 := mulRow(x[1], y0, y1, y2, y3)
	r1, c = bits.Add64(r1, t0, 0)
	r2, c = bits.Add64(r2, t1, c)
	r3, c = bits.Add64(r3, t2, c)
	r4, c = bits.Add64(r4, t3, c)
	r5 := t4 + c

	t0, t1, t2, t3, t4 = mulRow(x[2], y0, y1, y2, y3)
	r2, c = bits.Add64(r2, t0, 0)
	r3, c = bits.Add64(r3, t1, c)
	r4, c = bits.Add64(r4, t2, c)
	r5, c = bits.Add64(r5, t3, c)
	r6 := t4 + c

	t0, t1, t2, t3, t4 = mulRow(x[3], y0, y1, y2, y3)
	r3, c = bits.Add64(r3, t0, 0)
	r4, c = bits.Add64(r4, t1, c)
	r5, c = bits.Add64(r5, t2, c)
	r6, c = bits.Add64(r6, t3, c)
	r7 := t4 + c

	z.reduce512(r0, r1, r2, r3, r4, r5, r6, r7)
}

// sqr sets z = x². The six cross products are summed once and doubled by
// a one-bit shift before the four squares are added on the diagonal.
func (z *fieldVal) sqr(x *fieldVal) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	h01, r1 := bits.Mul64(x0, x1)
	h02, l02 := bits.Mul64(x0, x2)
	h03, l03 := bits.Mul64(x0, x3)
	h12, l12 := bits.Mul64(x1, x2)
	h13, l13 := bits.Mul64(x1, x3)
	h23, l23 := bits.Mul64(x2, x3)
	r2, c := bits.Add64(l02, h01, 0)
	r3, c := bits.Add64(l03, h02, c)
	r4, c := bits.Add64(l13, h03, c)
	r5, c := bits.Add64(l23, h13, c)
	r6 := h23 + c
	r3, c = bits.Add64(r3, l12, 0)
	r4, c = bits.Add64(r4, h12, c)
	r5, c = bits.Add64(r5, 0, c)
	r6 += c

	r7 := r6 >> 63
	r6 = r6<<1 | r5>>63
	r5 = r5<<1 | r4>>63
	r4 = r4<<1 | r3>>63
	r3 = r3<<1 | r2>>63
	r2 = r2<<1 | r1>>63
	r1 <<= 1

	h0, r0 := bits.Mul64(x0, x0)
	h1, l1 := bits.Mul64(x1, x1)
	h2, l2 := bits.Mul64(x2, x2)
	h3, l3 := bits.Mul64(x3, x3)
	r1, c = bits.Add64(r1, h0, 0)
	r2, c = bits.Add64(r2, l1, c)
	r3, c = bits.Add64(r3, h1, c)
	r4, c = bits.Add64(r4, l2, c)
	r5, c = bits.Add64(r5, h2, c)
	r6, c = bits.Add64(r6, l3, c)
	r7, _ = bits.Add64(r7, h3, c)

	z.reduce512(r0, r1, r2, r3, r4, r5, r6, r7)
}

// reduce512 stores the 512-bit value r7…r0 reduced mod p.
func (z *fieldVal) reduce512(r0, r1, r2, r3, r4, r5, r6, r7 uint64) {
	// First fold: lo + hi·pFold fits five limbs, the top one below 2^34.
	m0, m1, m2, m3, m4 := mulRow(pFold, r4, r5, r6, r7)
	r0, c := bits.Add64(r0, m0, 0)
	r1, c = bits.Add64(r1, m1, c)
	r2, c = bits.Add64(r2, m2, c)
	r3, c = bits.Add64(r3, m3, c)
	m4 += c
	// Second fold: m4·pFold < 2^67, so the sum stays below 2^256 + 2^67 < 2p.
	h, l := bits.Mul64(m4, pFold)
	r0, c = bits.Add64(r0, l, 0)
	r1, c = bits.Add64(r1, h, c)
	r2, c = bits.Add64(r2, 0, c)
	r3, c = bits.Add64(r3, 0, c)
	z.setReduced(r0, r1, r2, r3, c)
}

// sqrN sets z = x^(2^n).
func (z *fieldVal) sqrN(x *fieldVal, n int) {
	z.sqr(x)
	for i := 1; i < n; i++ {
		z.sqr(z)
	}
}

// pow223 is the shared head of the inversion and square-root addition
// chains: both exponents, p − 2 and (p + 1)/4, open with a run of 223 one
// bits, a zero, and a run of 22 one bits. It returns x^(2^n − 1) for
// n = 2, 22 and 223.
func pow223(x *fieldVal) (x2, x22, x223 fieldVal) {
	var x3, x6, x9, x11, x44, x88, x176, x220 fieldVal
	x2.sqr(x)
	x2.mul(&x2, x)
	x3.sqr(&x2)
	x3.mul(&x3, x)
	x6.sqrN(&x3, 3)
	x6.mul(&x6, &x3)
	x9.sqrN(&x6, 3)
	x9.mul(&x9, &x3)
	x11.sqrN(&x9, 2)
	x11.mul(&x11, &x2)
	x22.sqrN(&x11, 11)
	x22.mul(&x22, &x11)
	x44.sqrN(&x22, 22)
	x44.mul(&x44, &x22)
	x88.sqrN(&x44, 44)
	x88.mul(&x88, &x44)
	x176.sqrN(&x88, 88)
	x176.mul(&x176, &x88)
	x220.sqrN(&x176, 44)
	x220.mul(&x220, &x44)
	x223.sqrN(&x220, 3)
	x223.mul(&x223, &x3)
	return x2, x22, x223
}

// inv sets z = x⁻¹ = x^(p−2) (Fermat); the inverse of zero is zero. The
// low bits of p − 2 after the shared head are 0000 1 011 01.
func (z *fieldVal) inv(x *fieldVal) {
	x2, x22, t := pow223(x)
	t.sqrN(&t, 23)
	t.mul(&t, &x22)
	t.sqrN(&t, 5)
	t.mul(&t, x)
	t.sqrN(&t, 3)
	t.mul(&t, &x2)
	t.sqrN(&t, 2)
	z.mul(&t, x)
}

// sqrt sets z to a square root of x and reports whether one exists. Since
// p ≡ 3 (mod 4) the candidate is x^((p+1)/4), whose low bits after the
// shared head are 0000 11 00; it is a root exactly when its square is x.
func (z *fieldVal) sqrt(x *fieldVal) bool {
	x2, x22, t := pow223(x)
	t.sqrN(&t, 23)
	t.mul(&t, &x22)
	t.sqrN(&t, 6)
	t.mul(&t, &x2)
	t.sqrN(&t, 2)
	var check fieldVal
	check.sqr(&t)
	ok := check == *x
	*z = t
	return ok
}
