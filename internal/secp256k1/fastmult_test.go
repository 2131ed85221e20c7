package secp256k1

import (
	"math/big"
	"math/rand"
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

// doubleScalarMultShamir runs the fast ladder on reference-typed operands.
func doubleScalarMultShamir(u1 *big.Int, p affinePoint, u2 *big.Int) jacobianPoint {
	q := p.val()
	return refJacobian(shamirMult(u1, &q, u2))
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
	l3 := new(big.Int).Exp(glvLambda, big.NewInt(3), curveN)
	if l3.Cmp(big.NewInt(1)) != 0 {
		t.Error("λ is not a cube root of unity mod n")
	}
	b3 := new(big.Int).Exp(glvBeta, big.NewInt(3), curveP)
	if b3.Cmp(big.NewInt(1)) != 0 {
		t.Error("β is not a cube root of unity mod p")
	}
	// The lattice vectors satisfy a_i + b_i·λ ≡ 0 (mod n), with
	// b1 = −glvNegB1 and b2 = glvB2.
	v1 := new(big.Int).Mul(glvNegB1, glvLambda)
	v1.Sub(glvA1, v1)
	if v1.Mod(v1, curveN).Sign() != 0 {
		t.Error("a1 + b1·λ ≢ 0 (mod n)")
	}
	v2 := new(big.Int).Mul(glvB2, glvLambda)
	v2.Add(glvA2, v2)
	if v2.Mod(v2, curveN).Sign() != 0 {
		t.Error("a2 + b2·λ ≢ 0 (mod n)")
	}
}

func TestEndomorphismMatchesLambdaMult(t *testing.T) {
	// φ(P) = (β·x, y) must equal λ·P computed with the naive ladder.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		p := randPoint(rng)
		phi := phiTable([]affineVal{p.val()})[0].ref()
		lam := toAffine(scalarMult(p, glvLambda))
		if phi.x.Cmp(lam.x) != 0 || phi.y.Cmp(lam.y) != 0 {
			t.Fatalf("φ(P) ≠ λ·P for point %d", i)
		}
	}
}

func TestSplitScalarDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bound := new(big.Int).Lsh(big.NewInt(1), 129)
	ks := append(edgeScalars(), make([]*big.Int, 0, 64)...)
	for i := 0; i < 64; i++ {
		ks = append(ks, randScalar(rng))
	}
	for _, k := range ks {
		k1, k2 := splitScalar(k)
		// k1 + k2·λ ≡ k (mod n)
		sum := new(big.Int).Mul(k2, glvLambda)
		sum.Add(sum, k1)
		sum.Sub(sum, k)
		if sum.Mod(sum, curveN).Sign() != 0 {
			t.Fatalf("split of %s does not recompose", k.Text(16))
		}
		if new(big.Int).Abs(k1).Cmp(bound) > 0 || new(big.Int).Abs(k2).Cmp(bound) > 0 {
			t.Fatalf("split of %s is not short: |k1|=%d bits |k2|=%d bits",
				k.Text(16), k1.BitLen(), k2.BitLen())
		}
	}
}

func TestWNAFDigitsReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, w := range []uint{4, 5, 8} {
		for i := 0; i < 32; i++ {
			k := randScalar(rng)
			digits := wnafDigits(k, w)
			acc := new(big.Int)
			for j := len(digits) - 1; j >= 0; j-- {
				acc.Lsh(acc, 1)
				acc.Add(acc, big.NewInt(int64(digits[j])))
				d := int64(digits[j])
				if d != 0 && (d%2 == 0 || d >= 1<<(w-1) || d <= -(1<<(w-1))) {
					t.Fatalf("w=%d: digit %d out of wNAF range", w, d)
				}
			}
			if acc.Cmp(k) != 0 {
				t.Fatalf("w=%d: digits do not reconstruct the scalar", w)
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
