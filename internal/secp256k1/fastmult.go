package secp256k1

import (
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

// The GLV endomorphism: β is a cube root of unity mod p and λ (glvLambda,
// scalar.go) the matching cube root of unity mod n, so λ·(x, y) = (β·x, y)
// for every curve point.
var glvBeta = fieldVal{0xc1396c28719501ee, 0x9cf0497512f58995, 0x6e64479eac3434e9, 0x7ae96a2b657c0710}

// Window widths: the base-point tables are precomputed once, so they afford
// a wide window; the per-call table for Q pays its own precomputation and
// stays narrow, and the table for a 128-bit batch coefficient's point
// narrower still, having half the digits to amortize it over.
const (
	baseWindow  = 8 // 2^(w-2) = 64 precomputed odd multiples of G (and λG)
	pointWindow = 5 // 8 odd multiples of Q, built per call
	coeffWindow = 4 // 4 odd multiples of each R_i in RecoverBatchMatches
)

// wnafMaxLen bounds the wNAF length of every scalar the ladder takes: GLV
// halves and batch coefficients are below 2^128, and a b-bit value has at
// most b+1 digits.
const wnafMaxLen = 130

// wnafDigits writes the width-w non-adjacent form of k (k < 2^129) to naf,
// least significant digit first, and returns the number of digits. Nonzero
// digits are odd and lie in (−2^(w−1), 2^(w−1)); at most one of any w
// consecutive digits is nonzero.
func wnafDigits(naf *[wnafMaxLen]int8, k *scalarVal, w uint) int {
	// A fourth limb: rounding a digit up can carry one bit past the top.
	d := [4]uint64{k[0], k[1], k[2], k[3]}
	mod := uint64(1) << w
	n := 0
	for {
		// Skip the run of zero digits below the lowest set bit in one
		// step: whole zero limbs first, then the trailing zeros of the
		// lowest nonzero one. A run always ends in a nonzero digit, so it
		// stays inside naf.
		z := 0
		for d[0] == 0 {
			if d == [4]uint64{} {
				return n
			}
			d = [4]uint64{d[1], d[2], d[3], 0}
			z += 64
		}
		s := bits.TrailingZeros64(d[0])
		shiftRight(&d, uint(s))
		z += s
		clear(naf[n : n+z])
		n += z
		// d is odd: one nonzero digit, which leaves d a multiple of 2^w.
		low := d[0] & (mod - 1)
		if low < mod/2 {
			naf[n] = int8(low)
			d[0] -= low
		} else {
			naf[n] = int8(int64(low) - int64(mod))
			carry := mod - low
			for i := range d {
				d[i], carry = bits.Add64(d[i], carry, 0)
			}
		}
		n++
		shiftRight(&d, 1)
	}
}

// shiftRight shifts the four-limb value d right by s < 64 bits.
func shiftRight(d *[4]uint64, s uint) {
	for i := 0; i < 3; i++ {
		d[i] = d[i]>>s | d[i+1]<<(64-s)
	}
	d[3] >>= s
}

// oddMultiples writes the odd multiples [P, 3P, 5P, …] of p to tbl in
// Jacobian form.
func oddMultiples(tbl []jacobianVal, p *affineVal) {
	tbl[0] = p.jacobian()
	twoP := tbl[0]
	twoP.double()
	for j := 1; j < len(tbl); j++ {
		tbl[j] = tbl[j-1]
		tbl[j].add(&twoP)
	}
}

// oddMultipleTables returns, for every point, the n odd multiples
// [P, 3P, 5P, …, (2n−1)P] in affine form — n consecutive entries per point
// — sharing one field inversion across all of them.
func oddMultipleTables(points []affineVal, n int) []affineVal {
	jac := make([]jacobianVal, len(points)*n)
	for i := range points {
		oddMultiples(jac[i*n:(i+1)*n], &points[i])
	}
	out := make([]affineVal, len(jac))
	batchAffine(out, jac)
	return out
}

// phiTable writes the endomorphism's image of an affine table to out:
// φ(T[i]) = λ·T[i] costs one field multiplication per entry (and maps
// infinity to itself).
func phiTable(out, tbl []affineVal) {
	for i := range tbl {
		out[i].x.mul(&tbl[i].x, &glvBeta)
		out[i].y = tbl[i].y
	}
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
	oddLam = make([]affineVal, len(odd))
	phiTable(oddLam, odd)
	return odd, oddLam
}

// mulTerm is one component of the interleaved ladder: a wNAF digit string
// over a table of odd multiples [P, 3P, 5P, …].
type mulTerm struct {
	naf   [wnafMaxLen]int8
	n     int // digits in naf
	table []affineVal
	neg   bool // scalar was negative: flip every digit
}

// splitTerms GLV-splits k into its two ladder terms, the half over table
// and the half over phi = φ(table). A zero scalar gives two empty terms.
func splitTerms(k *scalarVal, w uint, table, phi []affineVal) (t1, t2 mulTerm) {
	k1, k2, neg1, neg2 := splitScalar(k)
	return newMulTerm(&k1, neg1, w, table), newMulTerm(&k2, neg2, w, phi)
}

// newMulTerm builds a ladder term from a half-scalar's magnitude and sign.
func newMulTerm(k *scalarVal, neg bool, w uint, table []affineVal) (t mulTerm) {
	t.n = wnafDigits(&t.naf, k, w)
	t.table, t.neg = table, neg
	return t
}

// shamirLadder evaluates Σ k_i·P_i with one shared run of doublings.
func shamirLadder(terms []mulTerm) jacobianVal {
	maxLen := 0
	for j := range terms {
		maxLen = max(maxLen, terms[j].n)
	}
	var acc jacobianVal
	for i := maxLen - 1; i >= 0; i-- {
		acc.double()
		for j := range terms {
			t := &terms[j]
			if i >= t.n || t.naf[i] == 0 {
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

// shamirMultTable computes u1·G + u2·P via GLV splitting, wNAF digits, and
// a single interleaved ladder, given P's odd-multiple table (nil for
// P = ∞).
func shamirMultTable(u1 *scalarVal, table []affineVal, u2 *scalarVal) jacobianVal {
	fastBaseOnce.Do(initFastBaseTables)
	var terms [4]mulTerm
	terms[0], terms[1] = splitTerms(u1, baseWindow, baseOddG, baseOddLamG)
	if table == nil {
		return shamirLadder(terms[:2])
	}
	var phi [pointTableLen]affineVal
	phiTable(phi[:], table)
	terms[2], terms[3] = splitTerms(u2, pointWindow, table, phi[:])
	return shamirLadder(terms[:])
}

// shamirMult computes u1·G + u2·P, building P's table itself.
func shamirMult(u1 *scalarVal, p *affineVal, u2 *scalarVal) jacobianVal {
	if u2.isZero() || p.isInfinity() {
		return shamirMultTable(u1, nil, u2)
	}
	var jac [pointTableLen]jacobianVal
	var table [pointTableLen]affineVal
	oddMultiples(jac[:], p)
	batchAffine(table[:], jac[:])
	return shamirMultTable(u1, table[:], u2)
}
