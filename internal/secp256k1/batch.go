package secp256k1

import (
	"crypto/rand"
	"math/big"

	"repro/internal/types"
)

// Batch signature verification and recovery.
//
// VerifyBatch folds n signature checks into one multi-scalar
// multiplication: with random 128-bit coefficients a_i it tests
//
//	Σ a_i·(u1_i·G + u2_i·Q_i − R_i) = ∞,
//
// where R_i is the ephemeral point reconstructed from (r_i, v_i) exactly
// as in public-key recovery. A forged signature makes the sum land on ∞
// with probability ≤ 2⁻¹²⁸ per random draw, and the whole test costs one
// Straus ladder (shared doublings across every term) instead of n
// independent double-scalar multiplications. When the combined check
// fails — or an R_i cannot be reconstructed, e.g. a foreign signature
// with a mismatched recovery id that classic verification would still
// accept — the affected items fall back to per-item Verify, so the
// result is always element-wise identical to calling Verify n times.
//
// RecoverAddressBatch amortizes the three inversions of per-item recovery
// (r⁻¹ mod n, the normalization of R's odd-multiple table, and the final
// Jacobian→affine conversion) across the batch with Montgomery's trick;
// the per-item ladders remain, so callers that want multicore scaling
// should additionally shard batches across workers.

// BatchVerifyItem is one (public key, digest, signature) triple for
// VerifyBatch.
type BatchVerifyItem struct {
	Pub    PublicKey
	Digest [32]byte
	Sig    Signature
}

// batchCoeffBits sizes the random coefficients: 128 bits keeps the
// soundness error negligible while halving the wNAF length of the
// aggregated R and Q scalars' random part.
const batchCoeffBits = 128

// multiScalarMult evaluates gScalar·G + Σ scalars[i]·points[i] with one
// interleaved Straus ladder: every scalar is GLV-split and wNAF-encoded,
// all per-point odd-multiple tables are normalized to affine with a
// single batched inversion, and one shared run of doublings serves every
// term.
func multiScalarMult(gScalar *big.Int, points []affineVal, scalars []*big.Int) jacobianVal {
	fastBaseOnce.Do(initFastBaseTables)
	terms := appendTerms(make([]mulTerm, 0, 2+2*len(points)), gScalar, baseWindow, baseOddG, baseOddLamG)
	tables := oddMultipleTables(points, pointTableLen)
	phis := phiTable(tables)
	for i, k := range scalars {
		lo, hi := i*pointTableLen, (i+1)*pointTableLen
		terms = appendTerms(terms, k, pointWindow, tables[lo:hi], phis[lo:hi])
	}
	return shamirLadder(terms)
}

// randomBatchCoeff draws a uniform coefficient in [1, 2^batchCoeffBits).
func randomBatchCoeff() (*big.Int, error) {
	max := new(big.Int).Lsh(big.NewInt(1), batchCoeffBits)
	max.Sub(max, big.NewInt(1))
	c, err := rand.Int(rand.Reader, max)
	if err != nil {
		return nil, err
	}
	return c.Add(c, big.NewInt(1)), nil
}

// VerifyBatch verifies many signatures at once. The i-th result is true
// exactly when Verify(items[i].Pub, items[i].Digest, items[i].Sig) is —
// the batch path is an optimization, never a semantic change. Batches of
// size ≤ 1 and items the combined check cannot cover degrade to per-item
// verification transparently.
func VerifyBatch(items []BatchVerifyItem) []bool {
	ok := make([]bool, len(items))
	if len(items) == 0 {
		return ok
	}
	if len(items) == 1 {
		for i, it := range items {
			ok[i] = Verify(it.Pub, it.Digest, it.Sig)
		}
		return ok
	}

	// Split the batch: items that fail cheap scalar/key validation are
	// definitively false; items whose R cannot be reconstructed need the
	// per-item path; the rest join the combined check.
	type member struct {
		idx    int
		q, r   affineVal
		u1, u2 *big.Int
	}
	var fallback []int
	members := make([]member, 0, len(items))
	sInv := make([]*big.Int, 0, len(items))
	for i, it := range items {
		q, valid := it.Pub.point()
		if !valid || it.Sig.validateScalars() != nil {
			continue // stays false, matching Verify
		}
		r, reconstructed := recoverEphemeralPoint(it.Sig)
		if !reconstructed {
			fallback = append(fallback, i)
			continue
		}
		members = append(members, member{idx: i, q: q, r: r})
		sInv = append(sInv, new(big.Int).Set(items[i].Sig.S))
	}
	if !batchModInverse(sInv, curveN) {
		// Cannot happen for validated scalars; defensive fallback.
		for i, it := range items {
			ok[i] = Verify(it.Pub, it.Digest, it.Sig)
		}
		return ok
	}
	for j := range members {
		it := items[members[j].idx]
		z := hashToInt(it.Digest)
		members[j].u1 = z.Mul(z, sInv[j]).Mod(z, curveN)
		u2 := new(big.Int).Mul(it.Sig.R, sInv[j])
		members[j].u2 = u2.Mod(u2, curveN)
	}

	combinedOK := false
	if len(members) > 0 {
		gScalar := new(big.Int)
		points := make([]affineVal, 0, 2*len(members))
		scalars := make([]*big.Int, 0, 2*len(members))
		randFailed := false
		for j := range members {
			a := big.NewInt(1)
			if j > 0 { // a_0 = 1: one coefficient is free
				var err error
				if a, err = randomBatchCoeff(); err != nil {
					randFailed = true
					break
				}
			}
			au1 := new(big.Int).Mul(a, members[j].u1)
			gScalar.Add(gScalar, au1.Mod(au1, curveN))
			au2 := new(big.Int).Mul(a, members[j].u2)
			points = append(points, members[j].q)
			scalars = append(scalars, au2.Mod(au2, curveN))
			negA := new(big.Int).Sub(curveN, a.Mod(a, curveN))
			points = append(points, members[j].r)
			scalars = append(scalars, negA.Mod(negA, curveN))
		}
		if !randFailed {
			gScalar.Mod(gScalar, curveN)
			sum := multiScalarMult(gScalar, points, scalars)
			combinedOK = sum.isInfinity()
		}
	}
	if combinedOK {
		for _, m := range members {
			ok[m.idx] = true
		}
	} else {
		// At least one member is bad (or randomness was unavailable):
		// locate the survivors individually.
		for _, m := range members {
			it := items[m.idx]
			ok[m.idx] = Verify(it.Pub, it.Digest, it.Sig)
		}
	}
	for _, i := range fallback {
		it := items[i]
		ok[i] = Verify(it.Pub, it.Digest, it.Sig)
	}
	return ok
}

// batchModInverse replaces every element of xs with its inverse mod m
// using Montgomery's trick: one ModInverse plus 3(n−1) multiplications.
// Returns false (leaving xs unspecified) if any element is not
// invertible.
func batchModInverse(xs []*big.Int, m *big.Int) bool {
	if len(xs) == 0 {
		return true
	}
	prefix := make([]*big.Int, len(xs))
	acc := big.NewInt(1)
	for i, x := range xs {
		prefix[i] = new(big.Int).Set(acc)
		acc.Mul(acc, x)
		acc.Mod(acc, m)
	}
	inv := new(big.Int).ModInverse(acc, m)
	if inv == nil {
		return false
	}
	for i := len(xs) - 1; i >= 0; i-- {
		x := new(big.Int).Mul(inv, prefix[i])
		inv.Mul(inv, xs[i])
		inv.Mod(inv, m)
		xs[i].Set(x.Mod(x, m))
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
