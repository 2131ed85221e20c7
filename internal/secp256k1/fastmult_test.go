package secp256k1

import (
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// randScalar draws a uniform scalar in [0, n) from a seeded source.
func randScalar(rng *rand.Rand) *big.Int {
	var buf [32]byte
	rng.Read(buf[:])
	k := new(big.Int).SetBytes(buf[:])
	return k.Mod(k, curveN)
}

// randPoint derives a random curve point as d·G for a random nonzero d.
func randPoint(rng *rand.Rand) affinePoint {
	for {
		d := randScalar(rng)
		if d.Sign() == 0 {
			continue
		}
		return toAffine(scalarBaseMult(d))
	}
}

// refJacobian converts a field-typed result to the reference
// representation so it can be compared with the big.Int ladder.
func refJacobian(p jacobianVal) jacobianPoint {
	a := p.affine()
	return fromAffine(a.ref())
}

// doubleScalarMultShamir runs the fast ladder on reference-typed operands
// (u1, u2 reduced mod n).
func doubleScalarMultShamir(u1 *big.Int, p affinePoint, u2 *big.Int) jacobianPoint {
	q := p.val()
	s1, s2 := mustScalar(u1), mustScalar(u2)
	return refJacobian(shamirMult(&s1, &q, &s2))
}

// mustScalar converts a big.Int in [0, n) to a scalarVal.
func mustScalar(v *big.Int) (s scalarVal) {
	if !s.setBig(v) {
		panic("not a scalar: " + v.Text(16))
	}
	return s
}

// edgeScalars are the boundary cases the differential tests must cover:
// zero, one, n−1, and scalars above n/2 (where naive and wNAF digit
// patterns diverge the most).
func edgeScalars() []*big.Int {
	overHalf := new(big.Int).Add(halfN, big.NewInt(1))
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(3),
		new(big.Int).Sub(curveN, big.NewInt(1)),
		new(big.Int).Sub(curveN, big.NewInt(2)),
		overHalf,
		new(big.Int).Set(halfN),
	}
}

func TestGLVConstantsAreConsistent(t *testing.T) {
	// λ³ ≡ 1 (mod n) and β³ ≡ 1 (mod p).
	l3 := new(big.Int).Exp(bigGLVLambda, big.NewInt(3), curveN)
	if l3.Cmp(big.NewInt(1)) != 0 {
		t.Error("λ is not a cube root of unity mod n")
	}
	b3 := new(big.Int).Exp(bigGLVBeta, big.NewInt(3), curveP)
	if b3.Cmp(big.NewInt(1)) != 0 {
		t.Error("β is not a cube root of unity mod p")
	}
	// The lattice vectors satisfy a_i + b_i·λ ≡ 0 (mod n), with
	// b1 = −glvNegB1 and b2 = glvB2.
	v1 := new(big.Int).Mul(bigGLVNegB1, bigGLVLambda)
	v1.Sub(bigGLVA1, v1)
	if v1.Mod(v1, curveN).Sign() != 0 {
		t.Error("a1 + b1·λ ≢ 0 (mod n)")
	}
	v2 := new(big.Int).Mul(bigGLVB2, bigGLVLambda)
	v2.Add(bigGLVA2, v2)
	if v2.Mod(v2, curveN).Sign() != 0 {
		t.Error("a2 + b2·λ ≢ 0 (mod n)")
	}
	// The limb constants the shipped split reads are these values, and
	// g1, g2 are round(2^384·b2/n) and round(2^384·(−b1)/n).
	g := func(b *big.Int) *big.Int { return refRoundDiv(new(big.Int).Lsh(b, 384), curveN) }
	minusB2 := new(big.Int).Sub(curveN, bigGLVB2)
	for _, c := range []struct {
		name string
		got  scalarVal
		want *big.Int
	}{
		{"λ", glvLambda, bigGLVLambda},
		{"−b1", glvMinusB1, bigGLVNegB1},
		{"−b2", glvMinusB2, minusB2},
		{"g1", glvG1, g(bigGLVB2)},
		{"g2", glvG2, g(bigGLVNegB1)},
	} {
		if c.got.big().Cmp(c.want) != 0 {
			t.Errorf("%s = %x, want %x", c.name, c.got.big(), c.want)
		}
	}
	if glvBeta.big().Cmp(bigGLVBeta) != 0 {
		t.Error("β limbs differ from β")
	}
}

func TestEndomorphismMatchesLambdaMult(t *testing.T) {
	// φ(P) = (β·x, y) must equal λ·P computed with the naive ladder.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		p := randPoint(rng)
		var phi [1]affineVal
		phiTable(phi[:], []affineVal{p.val()})
		lam := toAffine(scalarMult(p, bigGLVLambda))
		phi0 := phi[0].ref()
		if phi0.x.Cmp(lam.x) != 0 || phi0.y.Cmp(lam.y) != 0 {
			t.Fatalf("φ(P) ≠ λ·P for point %d", i)
		}
	}
}

// signedHalf returns a split half as a signed big.Int.
func signedHalf(k *scalarVal, neg bool) *big.Int {
	v := k.big()
	if neg {
		v.Neg(v)
	}
	return v
}

// checkSplit holds splitScalar(k) to k1 + k2·λ ≡ k (mod n) with
// |k1|, |k2| < 2^128. With exact set it must also equal the math/big split
// it replaced; the two round c1 and c2 alike except where b·k mod n lies
// within about 2^127 of n/2, which random scalars hit with probability
// 2^−128.
func checkSplit(t testing.TB, k *big.Int, exact bool) {
	t.Helper()
	s := mustScalar(k)
	a1, a2, n1, n2 := splitScalar(&s)
	k1, k2 := signedHalf(&a1, n1), signedHalf(&a2, n2)
	sum := new(big.Int).Mul(k2, bigGLVLambda)
	sum.Add(sum, k1)
	sum.Sub(sum, k)
	if sum.Mod(sum, curveN).Sign() != 0 {
		t.Fatalf("split of %x does not recompose", k)
	}
	if k1.BitLen() > 128 || k2.BitLen() > 128 {
		t.Fatalf("split of %x is not short: |k1|=%d bits |k2|=%d bits", k, k1.BitLen(), k2.BitLen())
	}
	if (n1 && a1.isZero()) || (n2 && a2.isZero()) {
		t.Fatalf("split of %x has a negative zero", k)
	}
	if r1, r2 := refSplitScalar(k); exact && (k1.Cmp(r1) != 0 || k2.Cmp(r2) != 0) {
		t.Fatalf("split of %x = (%x, %x), reference (%x, %x)", k, k1, k2, r1, r2)
	}
}

func TestSplitScalarDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range edgeScalars() {
		checkSplit(t, k, true)
	}
	for i := 0; i < 20_000; i++ {
		checkSplit(t, randScalar(rng), true)
	}
	// k with b·k ≡ (n ± 1)/2 + δ (mod n) puts b·k/n next to a half
	// integer, where the fixed-width rounding may pick the other
	// neighbour.
	for _, b := range []*big.Int{bigGLVB2, bigGLVNegB1} {
		bInv := new(big.Int).ModInverse(b, curveN)
		for d := int64(-2); d <= 3; d++ {
			k := new(big.Int).Add(halfN, big.NewInt(d))
			checkSplit(t, k.Mod(k.Mul(k, bInv), curveN), false)
		}
	}
}

// wnafDigitsPerBit is the one-bit-per-turn wNAF expansion wnafDigits
// replaced: the reference its zero-run skipping must match digit for
// digit (the wNAF of a value is unique).
func wnafDigitsPerBit(naf *[wnafMaxLen]int8, k *scalarVal, w uint) int {
	d := [4]uint64{k[0], k[1], k[2], k[3]}
	mod := uint64(1) << w
	n := 0
	for d != [4]uint64{} {
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
		naf[n] = digit
		n++
		for i := 0; i < 3; i++ {
			d[i] = d[i]>>1 | d[i+1]<<63
		}
		d[3] >>= 1
	}
	return n
}

func TestWNAFDigitsReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pow2 := func(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }
	plus := func(a, b *big.Int) *big.Int { return new(big.Int).Add(a, b) }
	ks := []*big.Int{big.NewInt(0), big.NewInt(1), pow2(128),
		new(big.Int).Sub(pow2(129), big.NewInt(1)),
		// Zero runs that cross a limb boundary, and ones of 64 bits or more.
		plus(pow2(64), big.NewInt(1)), plus(pow2(128), big.NewInt(1)),
		plus(pow2(128), pow2(63)), pow2(64), plus(pow2(127), pow2(63))}
	for i := 0; i < 32; i++ {
		ks = append(ks, new(big.Int).Rsh(randScalar(rng), 127))
	}
	for _, w := range []uint{4, 5, 8} {
		for _, k := range ks {
			var naf, ref [wnafMaxLen]int8
			for i := range naf {
				naf[i] = 0x7f // zero digits must be written, not inherited
			}
			s := mustScalar(k)
			digits := naf[:wnafDigits(&naf, &s, w)]
			if want := ref[:wnafDigitsPerBit(&ref, &s, w)]; !slices.Equal(digits, want) {
				t.Fatalf("w=%d, k=%x: digits %v, per-bit reference %v", w, k, digits, want)
			}
			acc := new(big.Int)
			for j := len(digits) - 1; j >= 0; j-- {
				acc.Lsh(acc, 1)
				acc.Add(acc, big.NewInt(int64(digits[j])))
				d := int64(digits[j])
				if d != 0 && (d%2 == 0 || d >= 1<<(w-1) || d <= -(1<<(w-1))) {
					t.Fatalf("w=%d: digit %d out of wNAF range", w, d)
				}
				if d != 0 && j+int(w) <= len(digits) {
					for _, e := range digits[j+1 : j+int(w)] {
						if e != 0 {
							t.Fatalf("w=%d: two nonzero digits within a window", w)
						}
					}
				}
			}
			if acc.Cmp(k) != 0 {
				t.Fatalf("w=%d: digits do not reconstruct %x", w, k)
			}
		}
	}
}

// assertSamePoint compares two Jacobian results in affine coordinates.
func assertSamePoint(t *testing.T, label string, got, want jacobianPoint) {
	t.Helper()
	ga, wa := toAffine(got), toAffine(want)
	if ga.isInfinity() != wa.isInfinity() {
		t.Fatalf("%s: infinity mismatch (got inf=%v, want inf=%v)", label, ga.isInfinity(), wa.isInfinity())
	}
	if ga.isInfinity() {
		return
	}
	if ga.x.Cmp(wa.x) != 0 || ga.y.Cmp(wa.y) != 0 {
		t.Fatalf("%s: points differ", label)
	}
}

func TestScalarMultWNAFMatchesNaiveLadder(t *testing.T) {
	// Single-scalar form: 0·G + k·P through the wNAF/GLV ladder must be
	// bit-identical to the naive double-and-add reference on random and
	// edge scalars.
	rng := rand.New(rand.NewSource(17))
	zero := new(big.Int)
	scalars := edgeScalars()
	for i := 0; i < 24; i++ {
		scalars = append(scalars, randScalar(rng))
	}
	p := randPoint(rng)
	for _, k := range scalars {
		assertSamePoint(t, "k="+k.Text(16),
			doubleScalarMultShamir(zero, p, k),
			scalarMult(p, k))
	}
}

func TestDoubleScalarMultDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type pair struct{ u1, u2 *big.Int }
	pairs := []pair{}
	for _, e := range edgeScalars() {
		pairs = append(pairs, pair{e, randScalar(rng)}, pair{randScalar(rng), e})
	}
	for i := 0; i < 24; i++ {
		pairs = append(pairs, pair{randScalar(rng), randScalar(rng)})
	}
	for i, pr := range pairs {
		p := randPoint(rng)
		assertSamePoint(t, "pair "+big.NewInt(int64(i)).String(),
			doubleScalarMultShamir(pr.u1, p, pr.u2),
			doubleScalarMultRef(pr.u1, p, pr.u2))
	}
}

func TestVerifyAndRecoverAgreeAcrossPaths(t *testing.T) {
	key := PrivateKeyFromSeed([]byte("fastmult differential"))
	var digest [32]byte
	copy(digest[:], []byte("fastmult digest material 32bytes"))
	sig, err := Sign(key, digest)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(key.Pub, digest, sig) || !refVerify(key.Pub, digest, sig) {
		t.Error("valid signature rejected")
	}
	addr, err := RecoverAddress(digest, sig)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if addr != key.Address() {
		t.Errorf("recovered %s, want %s", addr, key.Address())
	}
	if pub, ok := refRecover(digest, sig); !ok || pub.x.Cmp(key.Pub.X) != 0 || pub.y.Cmp(key.Pub.Y) != 0 {
		t.Error("reference ladder recovers a different public key")
	}
	// A flipped digest bit must not verify on either ladder.
	bad := digest
	bad[0] ^= 1
	if Verify(key.Pub, bad, sig) || refVerify(key.Pub, bad, sig) {
		t.Error("tampered digest verified")
	}
}

func FuzzDoubleScalarMultDifferential(f *testing.F) {
	f.Add([]byte("seed-a"), []byte("seed-b"), []byte("seed-p"))
	f.Add([]byte{0}, []byte{1}, []byte{2})
	f.Add(curveN.Bytes(), halfN.Bytes(), []byte{7})
	f.Fuzz(func(t *testing.T, b1, b2, bp []byte) {
		u1 := new(big.Int).SetBytes(b1)
		u1.Mod(u1, curveN)
		u2 := new(big.Int).SetBytes(b2)
		u2.Mod(u2, curveN)
		d := new(big.Int).SetBytes(bp)
		d.Mod(d, curveN)
		if d.Sign() == 0 {
			d.SetInt64(1)
		}
		p := toAffine(scalarBaseMult(d))
		got := toAffine(doubleScalarMultShamir(u1, p, u2))
		want := toAffine(doubleScalarMultRef(u1, p, u2))
		if got.isInfinity() != want.isInfinity() {
			t.Fatal("infinity mismatch")
		}
		if !got.isInfinity() && (got.x.Cmp(want.x) != 0 || got.y.Cmp(want.y) != 0) {
			t.Fatal("fast path diverges from reference ladder")
		}
	})
}
