package secp256k1

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"sync"
)

// This file implements the fast double-scalar multiplication used by
// signature verification and public-key recovery:
//
//	u1·G + u2·Q
//
// as a single interleaved ladder (Shamir's trick) over width-w non-adjacent
// form (wNAF) digit expansions, with both scalars first split by the GLV
// endomorphism of secp256k1 (φ(x, y) = (β·x, y) acts as multiplication by
// λ). The split halves the number of doublings (≈ 128 instead of 256) and
// the wNAF digits cut the number of additions; the additions themselves are
// mixed (affine tables, see jacobianVal.addMixed), with the per-call table
// for Q normalized by one batched inversion (Montgomery's trick).
//
// The naive double-and-add ladder in reference_test.go (scalarMult) is the
// reference implementation; differential tests prove the two bit-identical.

// GLV endomorphism constants. λ is a cube root of unity mod n and β the
// matching cube root of unity mod p: λ·(x, y) = (β·x, y) for every curve
// point. (a1, b1) and (a2, b2) are short lattice vectors with
// a_i + b_i·λ ≡ 0 (mod n), so any rounding in splitScalar still yields a
// congruent decomposition (only the half-scalar magnitudes depend on it).
var (
	glvLambda = mustBig("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72")
	glvBeta   = mustBig("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee")
	glvA1     = mustBig("3086d221a7d46bcde86c90e49284eb15")
	glvNegB1  = mustBig("e4437ed6010e88286f547fa90abfe4c3")
	glvA2     = mustBig("114ca50f7a8e2f3f657c1108d9d44cfd8")
	glvB2     = mustBig("3086d221a7d46bcde86c90e49284eb15")
)

// Window widths: the base-point tables are precomputed once, so they afford
// a wide window; the per-call table for Q pays its own precomputation and
// stays narrow, and the table for a 128-bit batch coefficient's point
// narrower still, having half the digits to amortize it over.
const (
	baseWindow  = 8 // 2^(w-2) = 64 precomputed odd multiples of G (and λG)
	pointWindow = 5 // 8 odd multiples of Q, built per call
	coeffWindow = 4 // 4 odd multiples of each R_i in RecoverBatchMatches
)

// wnafDigits returns the width-w non-adjacent form of k (0 ≤ k < 2^256),
// least significant digit first. Nonzero digits are odd and lie in
// (−2^(w−1), 2^(w−1)); at most one of any w consecutive digits is nonzero.
func wnafDigits(k *big.Int, w uint) []int8 {
	if k.Sign() <= 0 {
		return nil
	}
	// Five limbs: rounding a digit up can carry one bit past 2^256.
	var b [32]byte
	k.FillBytes(b[:])
	var d [5]uint64
	for i := 0; i < 4; i++ {
		d[i] = binary.BigEndian.Uint64(b[24-8*i:])
	}
	mod := uint64(1) << w
	out := make([]int8, 0, k.BitLen()+1)
	for d != [5]uint64{} {
		var digit int8
		if d[0]&1 == 1 {
			low := d[0] & (mod - 1)
			if low < mod/2 {
				digit = int8(low)
				d[0] -= low
			} else {
				digit = int8(int64(low) - int64(mod))
				carry := mod - low
				for i := range d {
					d[i], carry = bits.Add64(d[i], carry, 0)
				}
			}
		}
		out = append(out, digit)
		for i := 0; i < 4; i++ {
			d[i] = d[i]>>1 | d[i+1]<<63
		}
		d[4] >>= 1
	}
	return out
}

// oddMultipleTables returns, for every point, the n odd multiples
// [P, 3P, 5P, …, (2n−1)P] in affine form — n consecutive entries per point
// — sharing one field inversion across all of them.
func oddMultipleTables(points []affineVal, n int) []affineVal {
	jac := make([]jacobianVal, len(points)*n)
	for i := range points {
		tbl := jac[i*n : (i+1)*n]
		tbl[0] = points[i].jacobian()
		twoP := tbl[0]
		twoP.double()
		for j := 1; j < n; j++ {
			tbl[j] = tbl[j-1]
			tbl[j].add(&twoP)
		}
	}
	out := make([]affineVal, len(jac))
	batchAffine(out, jac)
	return out
}

// glvBetaVal is β as a field element.
var glvBetaVal = mustField(glvBeta)

// phiTable applies the endomorphism to an affine table: φ(T[i]) = λ·T[i]
// costs one field multiplication per entry (and maps infinity to itself).
func phiTable(tbl []affineVal) []affineVal {
	out := make([]affineVal, len(tbl))
	for i := range tbl {
		out[i].x.mul(&tbl[i].x, &glvBetaVal)
		out[i].y = tbl[i].y
	}
	return out
}

// Lazily built odd-multiple tables for G and λG.
var (
	fastBaseOnce sync.Once
	baseOddG     []affineVal
	baseOddLamG  []affineVal
)

func initFastBaseTables() { baseOddG, baseOddLamG = windowTables(generator) }

// windowTables returns a fixed point's odd-multiple table at baseWindow and
// its φ image, the pair a GLV-split term over the point reads.
func windowTables(p affineVal) (odd, oddLam []affineVal) {
	odd = oddMultipleTables([]affineVal{p}, 1<<(baseWindow-2))
	return odd, phiTable(odd)
}

// roundDiv returns round(x / n) for x ≥ 0 and odd n.
func roundDiv(x, n *big.Int) *big.Int {
	r := new(big.Int).Rsh(n, 1)
	r.Add(r, x)
	return r.Div(r, n)
}

// splitScalar decomposes k (mod n) as k ≡ k1 + k2·λ with |k1|, |k2| ≈ √n.
func splitScalar(k *big.Int) (k1, k2 *big.Int) {
	c1 := roundDiv(new(big.Int).Mul(glvB2, k), curveN)
	c2 := roundDiv(new(big.Int).Mul(glvNegB1, k), curveN)
	k1 = new(big.Int).Mul(c1, glvA1)
	k1.Add(k1, new(big.Int).Mul(c2, glvA2))
	k1.Sub(k, k1)
	k2 = new(big.Int).Mul(c1, glvNegB1)
	k2.Sub(k2, new(big.Int).Mul(c2, glvB2))
	return k1, k2
}

// mulTerm is one component of the interleaved ladder: a wNAF digit string
// over a table of odd multiples [P, 3P, 5P, …].
type mulTerm struct {
	naf   []int8
	table []affineVal
	neg   bool // scalar was negative: flip every digit
}

// appendTerms GLV-splits k and appends its two ladder terms, the half over
// table and the half over phi = φ(table). A zero scalar adds nothing.
func appendTerms(terms []mulTerm, k *big.Int, w uint, table, phi []affineVal) []mulTerm {
	if k.Sign() == 0 {
		return terms
	}
	k1, k2 := splitScalar(k)
	return append(terms, newMulTerm(k1, w, table), newMulTerm(k2, w, phi))
}

// newMulTerm builds a ladder term from a signed half-scalar.
func newMulTerm(k *big.Int, w uint, table []affineVal) mulTerm {
	neg := k.Sign() < 0
	abs := k
	if neg {
		abs = new(big.Int).Neg(k)
	}
	return mulTerm{naf: wnafDigits(abs, w), table: table, neg: neg}
}

// shamirLadder evaluates Σ k_i·P_i with one shared run of doublings.
func shamirLadder(terms []mulTerm) jacobianVal {
	maxLen := 0
	for _, t := range terms {
		if len(t.naf) > maxLen {
			maxLen = len(t.naf)
		}
	}
	var acc jacobianVal
	for i := maxLen - 1; i >= 0; i-- {
		acc.double()
		for j := range terms {
			t := &terms[j]
			if i >= len(t.naf) || t.naf[i] == 0 {
				continue
			}
			d := int(t.naf[i])
			neg := t.neg
			if d < 0 {
				d, neg = -d, !neg
			}
			acc.addMixed(&t.table[(d-1)/2], neg)
		}
	}
	return acc
}

// pointTableLen is the size of a per-call odd-multiple table.
const pointTableLen = 1 << (pointWindow - 2)

// shamirMultTable computes u1·G + u2·P (u1, u2 reduced mod n) via GLV
// splitting, wNAF digits, and a single interleaved ladder, given P's
// odd-multiple table (nil for P = ∞).
func shamirMultTable(u1 *big.Int, table []affineVal, u2 *big.Int) jacobianVal {
	fastBaseOnce.Do(initFastBaseTables)
	terms := appendTerms(make([]mulTerm, 0, 4), u1, baseWindow, baseOddG, baseOddLamG)
	if table != nil {
		terms = appendTerms(terms, u2, pointWindow, table, phiTable(table))
	}
	return shamirLadder(terms)
}

// shamirMult computes u1·G + u2·P, building P's table itself.
func shamirMult(u1 *big.Int, p *affineVal, u2 *big.Int) jacobianVal {
	var table []affineVal
	if u2.Sign() != 0 && !p.isInfinity() {
		table = oddMultipleTables([]affineVal{*p}, pointTableLen)
	}
	return shamirMultTable(u1, table, u2)
}
