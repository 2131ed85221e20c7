package secp256k1

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// The batch APIs promise element-wise identical results to their per-item
// counterparts — the tests below hold them to it on valid, tampered, and
// malformed inputs, and pin the comb fixed-base path against the naive
// ladder.

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

// batchFixture builds n valid (pub, digest, sig) triples from distinct
// keys.
func batchFixture(tb testing.TB, n int) []BatchVerifyItem {
	tb.Helper()
	items := make([]BatchVerifyItem, n)
	for i := range items {
		key := PrivateKeyFromSeed([]byte(fmt.Sprintf("batch fixture %d", i)))
		var digest [32]byte
		copy(digest[:], fmt.Sprintf("batch digest %03d padded to 32 b!", i))
		sig, err := Sign(key, digest)
		if err != nil {
			tb.Fatal(err)
		}
		items[i] = BatchVerifyItem{Pub: key.Pub, Digest: digest, Sig: sig}
	}
	return items
}

// assertBatchMatchesVerify checks VerifyBatch against per-item Verify.
func assertBatchMatchesVerify(t *testing.T, label string, items []BatchVerifyItem) {
	t.Helper()
	got := VerifyBatch(items)
	for i, it := range items {
		want := Verify(it.Pub, it.Digest, it.Sig)
		if got[i] != want {
			t.Errorf("%s: item %d: VerifyBatch=%v, Verify=%v", label, i, got[i], want)
		}
	}
}

func TestVerifyBatchAllValid(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 33} {
		items := batchFixture(t, n)
		res := VerifyBatch(items)
		if len(res) != n {
			t.Fatalf("n=%d: got %d results", n, len(res))
		}
		for i, ok := range res {
			if !ok {
				t.Errorf("n=%d: valid item %d rejected", n, i)
			}
		}
	}
}

func TestVerifyBatchMatchesVerifyUnderTampering(t *testing.T) {
	base := batchFixture(t, 12)

	tamper := func(mutate func(items []BatchVerifyItem)) []BatchVerifyItem {
		items := make([]BatchVerifyItem, len(base))
		copy(items, base)
		mutate(items)
		return items
	}

	cases := []struct {
		name  string
		items []BatchVerifyItem
	}{
		{"flipped digest bit", tamper(func(it []BatchVerifyItem) { it[3].Digest[0] ^= 1 })},
		{"bumped s", tamper(func(it []BatchVerifyItem) {
			it[5].Sig.S = new(big.Int).Add(base[5].Sig.S, big.NewInt(1))
		})},
		{"swapped pubs", tamper(func(it []BatchVerifyItem) {
			it[0].Pub, it[1].Pub = it[1].Pub, it[0].Pub
		})},
		{"zero r", tamper(func(it []BatchVerifyItem) { it[7].Sig.R = new(big.Int) })},
		{"s = n", tamper(func(it []BatchVerifyItem) { it[2].Sig.S = new(big.Int).Set(curveN) })},
		// Flipping the parity bit moves the reconstructed R to its mirror:
		// the combined check must fail and the per-item fallback must still
		// accept the item, because classic Verify never looks at v.
		{"flipped v parity", tamper(func(it []BatchVerifyItem) { it[4].Sig.V ^= 1 })},
		// v|2 claims r overflowed n, which puts x = r + n beyond the field
		// prime for any realistic r: R is unreconstructible and the item
		// must be verified individually (and still accepted).
		{"overflow v bit", tamper(func(it []BatchVerifyItem) { it[6].Sig.V |= 2 })},
		{"everything at once", tamper(func(it []BatchVerifyItem) {
			it[0].Digest[31] ^= 0xff
			it[4].Sig.V ^= 1
			it[6].Sig.V |= 2
			it[8].Sig.R = new(big.Int)
		})},
	}
	for _, tc := range cases {
		assertBatchMatchesVerify(t, tc.name, tc.items)
	}
}

func TestVerifyBatchNaivePathMatches(t *testing.T) {
	// Every batch verdict must be the one per-item verification on the
	// reference ladder reaches.
	items := batchFixture(t, 6)
	items[2].Digest[0] ^= 1
	for i, got := range VerifyBatch(items) {
		if want := refVerify(items[i].Pub, items[i].Digest, items[i].Sig); got != want {
			t.Errorf("item %d: batch=%v reference=%v", i, got, want)
		}
	}
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

func BenchmarkVerifyBatch(b *testing.B) {
	for _, n := range []int{8, 32} {
		items := batchFixture(b, n)
		b.Run(fmt.Sprintf("batch-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := VerifyBatch(items)
				if !res[0] {
					b.Fatal("valid item rejected")
				}
			}
		})
		b.Run(fmt.Sprintf("peritem-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, it := range items {
					if !Verify(it.Pub, it.Digest, it.Sig) {
						b.Fatal("valid item rejected")
					}
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
