package secp256k1

import (
	"crypto/rand"
	"math/big"

	"repro/internal/types"
)

// Batch recovery and known-signer checks.
//
// RecoverAddressBatch amortizes the three inversions of per-item recovery
// (r⁻¹ mod n, the normalization of R's odd-multiple table, and the final
// Jacobian→affine conversion) across the batch with Montgomery's trick;
// the per-item ladders remain, so callers that want multicore scaling
// should additionally shard batches across workers.
//
// KnownSigner.RecoverBatchMatches answers the narrower question a
// verifier that already knows the expected key Q asks: would recovery
// return Q for every item? Recovery returns Q exactly when
// R_i = s_i⁻¹·(z_i·G + r_i·Q), so with secret random coefficients a_i it
// tests the one equation
//
//	(Σ a_i·z_i·s_i⁻¹)·G + (Σ a_i·r_i·s_i⁻¹)·Q − Σ a_i·R_i = ∞
//
// in one Straus ladder: one G term and one Q term however large the batch,
// plus one short term per item.

// batchCoeffBytes sizes the random coefficients a_i (i ≥ 1): 128 bits
// bound the chance that a batch holding a wrong item passes by 2⁻¹²⁸,
// and keep each R_i term half the length of a GLV-split full scalar.
const batchCoeffBytes = 16

// unitNAF is the digit string of a_0 = 1.
var unitNAF = []int8{1}

// KnownSigner is a public key prepared for RecoverBatchMatches: its
// odd-multiple tables and their φ images are built once, at the base
// point's window, so no check builds a table for it.
type KnownSigner struct {
	odd, oddLam []affineVal
}

// NewKnownSigner prepares pub for RecoverBatchMatches. It fails with
// ErrInvalidKey when pub is not a curve point.
func NewKnownSigner(pub PublicKey) (*KnownSigner, error) {
	q, ok := pub.point()
	if !ok {
		return nil, ErrInvalidKey
	}
	odd, oddLam := windowTables(q)
	return &KnownSigner{odd: odd, oddLam: oddLam}, nil
}

// RecoverBatchMatches reports whether RecoverAddress(digests[i], sigs[i])
// returns the signer's address for every i. A true result is wrong with
// probability at most 2⁻¹²⁸ per call, over coefficients drawn from
// crypto/rand that the caller never sees; false says only that some item
// does not match (or randomness was unavailable), not which. A batch of
// one needs no randomness and is exact. digests and sigs must have equal
// length.
func (k *KnownSigner) RecoverBatchMatches(digests [][32]byte, sigs []Signature) bool {
	if len(digests) != len(sigs) {
		panic("secp256k1: RecoverBatchMatches length mismatch")
	}
	n := len(sigs)
	if n == 0 {
		return true
	}
	rs := make([]affineVal, n)
	sInv := make([]*big.Int, n)
	for i, sig := range sigs {
		if sig.validateScalars() != nil {
			return false
		}
		r, ok := recoverEphemeralPoint(sig)
		if !ok {
			return false
		}
		rs[i], sInv[i] = r, new(big.Int).Set(sig.S)
	}
	if !batchModInverse(sInv, curveN) {
		return false // unreachable: every s is in [1, n) and n is prime
	}
	// a_0 = 1: one coefficient is free, so a batch of one draws nothing.
	coeffs := make([]byte, batchCoeffBytes*(n-1))
	if _, err := rand.Read(coeffs); err != nil {
		return false
	}

	// The R_i terms take the 128-bit a_i as is, over −R_i's table, with
	// no GLV split; R_0 needs no table, since a_0 = 1 is one addition.
	fastBaseOnce.Do(initFastBaseTables)
	const tableLen = 1 << (coeffWindow - 2)
	tables := oddMultipleTables(rs[1:], tableLen)
	terms := make([]mulTerm, 0, n+4)
	terms = append(terms, mulTerm{naf: unitNAF, table: rs[:1], neg: true})
	gSum, qSum := new(big.Int), new(big.Int)
	a, t, d, z := big.NewInt(1), new(big.Int), new(big.Int), new(big.Int)
	for i := range sigs {
		if i > 0 {
			a.SetBytes(coeffs[batchCoeffBytes*(i-1) : batchCoeffBytes*i])
			tbl := tables[(i-1)*tableLen : i*tableLen]
			terms = append(terms, mulTerm{naf: wnafDigits(a, coeffWindow), table: tbl, neg: true})
		}
		t.Mul(a, sInv[i])
		gSum.Add(gSum, z.Mul(d.SetBytes(digests[i][:]), t))
		qSum.Add(qSum, z.Mul(sigs[i].R, t))
	}
	terms = appendTerms(terms, gSum.Mod(gSum, curveN), baseWindow, baseOddG, baseOddLamG)
	terms = appendTerms(terms, qSum.Mod(qSum, curveN), baseWindow, k.odd, k.oddLam)
	sum := shamirLadder(terms)
	return sum.isInfinity()
}

// batchModInverse replaces every element of xs with its inverse mod m
// using Montgomery's trick: one ModInverse plus 3(n−1) multiplications.
// Returns false (leaving xs unspecified) if any element is not
// invertible.
func batchModInverse(xs []*big.Int, m *big.Int) bool {
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

// RecoverAddressBatch recovers the signer address of every
// (digest, signature) pair. The i-th address/error pair matches what
// RecoverAddress(digests[i], sigs[i]) returns; a failed item never
// affects its neighbours. The three inversions of per-item recovery (r⁻¹,
// the normalization of R's odd-multiple table, and that of the recovered
// point) are each amortized across the batch with Montgomery's trick.
// digests and sigs must have equal length.
func RecoverAddressBatch(digests [][32]byte, sigs []Signature) ([]types.Address, []error) {
	if len(digests) != len(sigs) {
		panic("secp256k1: RecoverAddressBatch length mismatch")
	}
	addrs := make([]types.Address, len(digests))
	errs := make([]error, len(digests))
	perItem := func() ([]types.Address, []error) {
		for i := range digests {
			addrs[i], errs[i] = RecoverAddress(digests[i], sigs[i])
		}
		return addrs, errs
	}
	if len(digests) <= 1 {
		return perItem()
	}

	// Phase 1: validate and reconstruct each ephemeral point.
	idx := make([]int, 0, len(digests))
	rs := make([]affineVal, 0, len(digests))
	rInv := make([]*big.Int, 0, len(digests))
	for i := range digests {
		if err := sigs[i].validateScalars(); err != nil {
			errs[i] = err
			continue
		}
		r, reconstructed := recoverEphemeralPoint(sigs[i])
		if !reconstructed {
			errs[i] = ErrRecoveryFailed
			continue
		}
		idx = append(idx, i)
		rs = append(rs, r)
		rInv = append(rInv, new(big.Int).Set(sigs[i].R))
	}

	// Phase 2: amortized r⁻¹ mod n and odd-multiple tables for every member.
	if !batchModInverse(rInv, curveN) {
		// Impossible for validated scalars (n is prime); defensive.
		return perItem()
	}
	tables := oddMultipleTables(rs, pointTableLen)

	// Phase 3: per-item ladders Q = (−z·r⁻¹)·G + (s·r⁻¹)·R, batching the
	// final affine normalization.
	qs := make([]jacobianVal, len(idx))
	for j, i := range idx {
		u1, u2 := recoverScalars(digests[i], sigs[i], rInv[j])
		qs[j] = shamirMultTable(u1, tables[j*pointTableLen:(j+1)*pointTableLen], u2)
	}
	flat := make([]affineVal, len(qs))
	batchAffine(flat, qs)
	for j, i := range idx {
		if qs[j].isInfinity() || !flat[j].onCurve() {
			errs[i] = ErrRecoveryFailed
			continue
		}
		pub := PublicKey{X: flat[j].x.big(), Y: flat[j].y.big()}
		addrs[i] = pub.Address()
	}
	return addrs, errs
}
