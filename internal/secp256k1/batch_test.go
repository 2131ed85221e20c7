package secp256k1

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// The batch APIs promise the results of their per-item counterparts:
// RecoverAddressBatch item by item, RecoverBatchMatches as "every item
// recovers to the known key". The tests below hold them to it on valid,
// tampered, and malformed inputs, and pin the comb fixed-base path against
// the naive ladder.

func TestScalarBaseMultCombDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	scalars := edgeScalars()
	for i := 0; i < 32; i++ {
		scalars = append(scalars, randScalar(rng))
	}
	// Above-n and negative inputs exercise the comb's reduction preamble.
	scalars = append(scalars,
		new(big.Int).Add(curveN, big.NewInt(5)),
		new(big.Int).Neg(big.NewInt(7)),
		new(big.Int).Lsh(big.NewInt(1), 300))
	for _, k := range scalars {
		assertSamePoint(t, "comb k="+k.Text(16),
			refJacobian(scalarBaseMultComb(k)),
			scalarBaseMult(new(big.Int).Mod(k, curveN)))
	}
}

func TestSignIdenticalAcrossBaseMultPaths(t *testing.T) {
	// The comb table only accelerates k·G inside Sign; the signature bytes
	// must be the ones the reference ladder's ephemeral point yields.
	key := PrivateKeyFromSeed([]byte("comb differential"))
	for trial := 0; trial < 8; trial++ {
		var digest [32]byte
		copy(digest[:], fmt.Sprintf("comb digest %02d material 32bytes!", trial))
		got, err := Sign(key, digest)
		if err != nil {
			t.Fatal(err)
		}
		want := refSign(key, digest)
		if got.R.Cmp(want.R) != 0 || got.S.Cmp(want.S) != 0 || got.V != want.V {
			t.Fatalf("trial %d: comb and reference Sign disagree", trial)
		}
	}
}

// knownSignerFixture builds n valid (digest, signature) pairs from one key
// and that key prepared as a KnownSigner.
func knownSignerFixture(tb testing.TB, n int) (*PrivateKey, *KnownSigner, [][32]byte, []Signature) {
	tb.Helper()
	key := PrivateKeyFromSeed([]byte("known signer"))
	ks, err := NewKnownSigner(key.Pub)
	if err != nil {
		tb.Fatal(err)
	}
	digests := make([][32]byte, n)
	sigs := make([]Signature, n)
	for i := range digests {
		copy(digests[i][:], fmt.Sprintf("known digest %03d padded to 32 b!", i))
		if sigs[i], err = Sign(key, digests[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return key, ks, digests, sigs
}

// recoverAllMatch is the per-item oracle of RecoverBatchMatches.
func recoverAllMatch(want types.Address, digests [][32]byte, sigs []Signature) bool {
	for i := range digests {
		addr, err := RecoverAddress(digests[i], sigs[i])
		if err != nil || addr != want {
			return false
		}
	}
	return true
}

func TestRecoverBatchMatchesAllValid(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 33} {
		_, ks, digests, sigs := knownSignerFixture(t, n)
		if !ks.RecoverBatchMatches(digests, sigs) {
			t.Errorf("n=%d: valid batch rejected", n)
		}
	}
}

// TestRecoverBatchMatches perturbs one item of a valid batch at a time,
// at the first, middle and last position, and holds the combined check to
// the per-item oracle: true exactly when every RecoverAddress returns the
// known signer's address.
func TestRecoverBatchMatches(t *testing.T) {
	foreign := PrivateKeyFromSeed([]byte("foreign signer"))
	perturbations := []struct {
		name   string
		mutate func(digests [][32]byte, sigs []Signature, i int)
	}{
		{"wrong v", func(_ [][32]byte, s []Signature, i int) { s[i].V ^= 1 }},
		{"high s", func(_ [][32]byte, s []Signature, i int) { s[i].S = new(big.Int).Sub(curveN, s[i].S) }},
		{"bumped s", func(_ [][32]byte, s []Signature, i int) { s[i].S = new(big.Int).Add(s[i].S, big.NewInt(1)) }},
		{"zero r", func(_ [][32]byte, s []Signature, i int) { s[i].R = new(big.Int) }},
		{"r = n", func(_ [][32]byte, s []Signature, i int) { s[i].R = new(big.Int).Set(curveN) }},
		{"s = n", func(_ [][32]byte, s []Signature, i int) { s[i].S = new(big.Int).Set(curveN) }},
		{"overflowed r", func(_ [][32]byte, s []Signature, i int) { s[i].V |= 2 }},
		{"digest bit flip", func(d [][32]byte, _ []Signature, i int) { d[i][0] ^= 1 }},
		{"foreign key", func(d [][32]byte, s []Signature, i int) {
			sig, err := Sign(foreign, d[i])
			if err != nil {
				panic(err)
			}
			s[i] = sig
		}},
		// A repeated item still recovers the known key: the batch holds.
		{"duplicate item", func(d [][32]byte, s []Signature, i int) {
			j := (i + 1) % len(d)
			d[i], s[i] = d[j], s[j]
		}},
	}
	for _, n := range []int{1, 2, 32, 64} {
		key, ks, base, baseSigs := knownSignerFixture(t, n)
		for _, p := range perturbations {
			for _, i := range []int{0, n / 2, n - 1} {
				digests := append([][32]byte(nil), base...)
				sigs := append([]Signature(nil), baseSigs...)
				p.mutate(digests, sigs, i)
				want := recoverAllMatch(key.Address(), digests, sigs)
				if got := ks.RecoverBatchMatches(digests, sigs); got != want {
					t.Errorf("n=%d %s at %d: RecoverBatchMatches=%v, per-item oracle %v", n, p.name, i, got, want)
				}
			}
		}
	}
}

func TestRecoverBatchMatchesReferencePath(t *testing.T) {
	// A true verdict must be one the math/big reference recovery reaches
	// item by item, and a tampered item must flip it.
	key, ks, digests, sigs := knownSignerFixture(t, 6)
	want := toAffine(scalarBaseMult(key.D))
	for i := range digests {
		got, ok := refRecover(digests[i], sigs[i])
		if !ok || got.x.Cmp(want.x) != 0 || got.y.Cmp(want.y) != 0 {
			t.Fatalf("item %d: reference recovery does not return the key", i)
		}
	}
	if !ks.RecoverBatchMatches(digests, sigs) {
		t.Fatal("batch rejected items the reference recovers to the key")
	}
	digests[2][0] ^= 1
	if ks.RecoverBatchMatches(digests, sigs) {
		t.Fatal("batch accepted an item the reference recovers to another key")
	}
}

func TestKnownSignerRejectsInvalidKeyAndMismatch(t *testing.T) {
	bad := PublicKey{X: big.NewInt(1), Y: big.NewInt(1)}
	if _, err := NewKnownSigner(bad); !errors.Is(err, ErrInvalidKey) {
		t.Errorf("NewKnownSigner(off-curve) err = %v, want ErrInvalidKey", err)
	}
	_, ks, _, _ := knownSignerFixture(t, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	ks.RecoverBatchMatches(make([][32]byte, 2), make([]Signature, 1))
}

// FuzzRecoverBatchMatchesDifferential inserts one arbitrary (digest,
// signature) item into a batch of valid ones at an arbitrary split point;
// an empty signature stands for the known key's own signature over the
// digest, so true verdicts stay reachable. The verdict must be the
// per-item oracle's.
func FuzzRecoverBatchMatchesDifferential(f *testing.F) {
	f.Add([]byte("digest"), []byte{}, uint8(0))
	f.Add([]byte("digest"), []byte{}, uint8(3))
	f.Add([]byte{1}, make([]byte, 65), uint8(1))
	key, ks, base, baseSigs := knownSignerFixture(f, 3)
	good := baseSigs[0].Bytes()
	flipped := append([]byte(nil), good...)
	flipped[64] ^= 1
	f.Add(base[0][:], good, uint8(2))
	f.Add(base[0][:], flipped, uint8(2))
	f.Fuzz(func(t *testing.T, digestBytes, sigBytes []byte, split uint8) {
		var digest [32]byte
		copy(digest[:], digestBytes)
		var sig Signature
		if len(sigBytes) == 0 {
			var err error
			if sig, err = Sign(key, digest); err != nil {
				t.Fatal(err)
			}
		} else {
			var b [SignatureLength]byte
			copy(b[:], sigBytes)
			sig = Signature{R: new(big.Int).SetBytes(b[:32]), S: new(big.Int).SetBytes(b[32:64]), V: b[64]}
		}
		at := int(split) % (len(base) + 1)
		digests := append(append(append([][32]byte(nil), base[:at]...), digest), base[at:]...)
		sigs := append(append(append([]Signature(nil), baseSigs[:at]...), sig), baseSigs[at:]...)
		want := recoverAllMatch(key.Address(), digests, sigs)
		if got := ks.RecoverBatchMatches(digests, sigs); got != want {
			t.Fatalf("RecoverBatchMatches=%v, per-item oracle %v", got, want)
		}
	})
}

func TestRecoverAddressBatchMatchesPerItem(t *testing.T) {
	n := 14
	digests := make([][32]byte, n)
	sigs := make([]Signature, n)
	for i := 0; i < n; i++ {
		key := PrivateKeyFromSeed([]byte(fmt.Sprintf("batch recover %d", i)))
		copy(digests[i][:], fmt.Sprintf("recover digest %03d pad to 32 by", i))
		sig, err := Sign(key, digests[i])
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
	}
	// Corrupt a spread of items in ways that hit every failure class.
	sigs[1].S = new(big.Int).Add(sigs[1].S, big.NewInt(1)) // recovers a different (valid) key
	sigs[3].R = new(big.Int)                               // scalar validation error
	sigs[5].V ^= 1                                         // mirror R: different address, same on both paths
	sigs[7].V |= 2                                         // unreconstructible R
	digests[9][0] ^= 1                                     // different digest: different address

	addrs, errs := RecoverAddressBatch(digests, sigs)
	for i := 0; i < n; i++ {
		wantAddr, wantErr := RecoverAddress(digests[i], sigs[i])
		if (errs[i] == nil) != (wantErr == nil) {
			t.Errorf("item %d: batch err %v, per-item err %v", i, errs[i], wantErr)
			continue
		}
		if wantErr != nil {
			if errs[i].Error() != wantErr.Error() {
				t.Errorf("item %d: batch err %q, per-item err %q", i, errs[i], wantErr)
			}
			continue
		}
		if addrs[i] != wantAddr {
			t.Errorf("item %d: batch addr %s, per-item %s", i, addrs[i], wantAddr)
		}
	}
}

func TestRecoverAddressBatchEmptyAndMismatch(t *testing.T) {
	addrs, errs := RecoverAddressBatch(nil, nil)
	if len(addrs) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch: got %d addrs, %d errs", len(addrs), len(errs))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	RecoverAddressBatch(make([][32]byte, 2), make([]Signature, 1))
}

func TestBatchModInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	xs := make([]*big.Int, 17)
	want := make([]*big.Int, len(xs))
	for i := range xs {
		for {
			x := randScalar(rng)
			if x.Sign() != 0 {
				xs[i] = x
				break
			}
		}
		want[i] = new(big.Int).ModInverse(xs[i], curveN)
	}
	if !batchModInverse(xs, curveN) {
		t.Fatal("batchModInverse failed on invertible inputs")
	}
	for i := range xs {
		if xs[i].Cmp(want[i]) != 0 {
			t.Errorf("element %d: batch inverse differs from ModInverse", i)
		}
	}
	// A non-invertible element (0) must report failure.
	if batchModInverse([]*big.Int{big.NewInt(3), new(big.Int)}, curveN) {
		t.Error("batchModInverse accepted a zero element")
	}
}

func BenchmarkRecoverBatchMatches(b *testing.B) {
	for _, n := range []int{1, 8, 32, 64} {
		_, ks, digests, sigs := knownSignerFixture(b, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !ks.RecoverBatchMatches(digests, sigs) {
					b.Fatal("valid batch rejected")
				}
			}
		})
	}
}

func BenchmarkRecoverAddressBatch(b *testing.B) {
	n := 32
	digests := make([][32]byte, n)
	sigs := make([]Signature, n)
	for i := 0; i < n; i++ {
		key := PrivateKeyFromSeed([]byte(fmt.Sprintf("bench recover %d", i)))
		copy(digests[i][:], fmt.Sprintf("bench digest %03d padded to 32by", i))
		sig, err := Sign(key, digests[i])
		if err != nil {
			b.Fatal(err)
		}
		sigs[i] = sig
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, errs := RecoverAddressBatch(digests, sigs)
			if errs[0] != nil {
				b.Fatal(errs[0])
			}
		}
	})
	b.Run("peritem", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range digests {
				if _, err := RecoverAddress(digests[j], sigs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
