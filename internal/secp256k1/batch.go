package secp256k1

import (
	"crypto/rand"
	"encoding/binary"

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
	sInv := make([]scalarVal, n)
	for i, sig := range sigs {
		if sig.Validate() != nil {
			return false
		}
		r, ok := recoverEphemeralPoint(sig)
		if !ok {
			return false
		}
		rs[i] = r
		_, sInv[i] = sig.scalars()
	}
	batchInverse(sInv)
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
	terms = append(terms, newMulTerm(&scalarOne, true, coeffWindow, rs[:1]))
	var gSum, qSum scalarVal
	a := scalarOne
	for i := range sigs {
		if i > 0 {
			c := coeffs[batchCoeffBytes*(i-1):]
			a = scalarVal{binary.LittleEndian.Uint64(c), binary.LittleEndian.Uint64(c[8:])}
			tbl := tables[(i-1)*tableLen : i*tableLen]
			terms = append(terms, newMulTerm(&a, true, coeffWindow, tbl))
		}
		var t, u scalarVal
		t.mul(&a, &sInv[i])
		u = hashToInt(digests[i])
		u.mul(&u, &t)
		gSum.add(&gSum, &u)
		r, _ := sigs[i].scalars()
		u.mul(&r, &t)
		qSum.add(&qSum, &u)
	}
	g1, g2 := splitTerms(&gSum, baseWindow, baseOddG, baseOddLamG)
	q1, q2 := splitTerms(&qSum, baseWindow, k.odd, k.oddLam)
	sum := shamirLadder(append(terms, g1, g2, q1, q2))
	return sum.isInfinity()
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
	rInv := make([]scalarVal, 0, len(digests))
	for i := range digests {
		if err := sigs[i].Validate(); err != nil {
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
		rScalar, _ := sigs[i].scalars()
		rInv = append(rInv, rScalar)
	}

	// Phase 2: amortized r⁻¹ mod n and odd-multiple tables for every member.
	batchInverse(rInv)
	tables := oddMultipleTables(rs, pointTableLen)

	// Phase 3: per-item ladders Q = (−z·r⁻¹)·G + (s·r⁻¹)·R, batching the
	// final affine normalization.
	qs := make([]jacobianVal, len(idx))
	for j, i := range idx {
		_, s := sigs[i].scalars()
		u1, u2 := recoverScalars(digests[i], &s, &rInv[j])
		qs[j] = shamirMultTable(&u1, tables[j*pointTableLen:(j+1)*pointTableLen], &u2)
	}
	flat := make([]affineVal, len(qs))
	batchAffine(flat, qs)
	for j, i := range idx {
		if qs[j].isInfinity() || !flat[j].onCurve() {
			errs[i] = ErrRecoveryFailed
			continue
		}
		addrs[i] = flat[j].address()
	}
	return addrs, errs
}
