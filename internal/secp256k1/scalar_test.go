package secp256k1

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// scalarVal, the RFC 6979 HMAC and the allocation budget of the shipped
// paths. Scalar operations are recomputed with math/big modulo n, the
// nonce stream with the crypto/hmac generator of reference_test.go.

// scalarFrom loads a 256-bit value (any, including ≥ n) through setBytes
// and checks the reduction and its overflow report against math/big.
func scalarFrom(t testing.TB, v *big.Int) scalarVal {
	t.Helper()
	var b [32]byte
	v.FillBytes(b[:])
	var s scalarVal
	overflow := s.setBytes(&b)
	want := new(big.Int).Mod(v, curveN)
	if overflow != (v.Cmp(curveN) >= 0) || s.big().Cmp(want) != 0 {
		t.Fatalf("setBytes(%x) = %x overflow %v, want %x", v, s.big(), overflow, want)
	}
	if got := s.bytes(); new(big.Int).SetBytes(got[:]).Cmp(want) != 0 {
		t.Fatalf("bytes of %x = %x", want, got)
	}
	return s
}

// checkScalarOps compares every scalarVal operation on (a, b), both below
// 2^256, against math/big; slow additionally covers inv.
func checkScalarOps(t testing.TB, a, b *big.Int, slow bool) {
	t.Helper()
	sa, sb := scalarFrom(t, a), scalarFrom(t, b)
	a, b = new(big.Int).Mod(a, curveN), new(big.Int).Mod(b, curveN)
	want := new(big.Int)
	check := func(op string, got scalarVal) {
		t.Helper()
		want.Mod(want, curveN)
		if got.big().Cmp(want) != 0 {
			t.Fatalf("%s(%x, %x) = %x, want %x", op, a, b, got.big(), want)
		}
	}
	var z scalarVal
	z.mul(&sa, &sb)
	want.Mul(a, b)
	check("mul", z)
	z.add(&sa, &sb)
	want.Add(a, b)
	check("add", z)
	z.neg(&sa)
	want.Neg(a)
	check("neg", z)
	if sa.isHigh() != (a.Cmp(halfN) > 0) {
		t.Fatalf("isHigh(%x) = %v", a, sa.isHigh())
	}
	// Aliased receivers.
	z = sa
	z.mul(&z, &z)
	want.Mul(a, a)
	check("mul aliased", z)
	if !slow {
		return
	}
	z.inv(&sa)
	if want.ModInverse(a, curveN) == nil {
		want.SetInt64(0) // the inverse of zero is zero
	}
	check("inv", z)
}

// scalarEdges are the operands next to the boundaries of the
// representation, and inputs at or above n that setBytes must reduce.
func scalarEdges() []*big.Int {
	sub := func(x *big.Int, d int64) *big.Int { return new(big.Int).Sub(x, big.NewInt(d)) }
	add := func(x *big.Int, d int64) *big.Int { return new(big.Int).Add(x, big.NewInt(d)) }
	pow := func(n uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), n) }
	nc := new(big.Int).Sub(two256, curveN)
	return []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		sub(curveN, 1), sub(curveN, 2), new(big.Int).Set(halfN), add(halfN, 1),
		sub(pow(64), 1), pow(64), sub(pow(128), 1), pow(128), add(pow(128), 1),
		sub(pow(192), 1), pow(192), pow(255), sub(pow(255), 1),
		nc, sub(nc, 1), add(nc, 1),
		new(big.Int).Lsh(sub(pow(64), 1), 64), new(big.Int).Lsh(sub(pow(64), 1), 128),
		// At or above n on input.
		new(big.Int).Set(curveN), add(curveN, 1), sub(two256, 1), sub(two256, 2),
	}
}

// randScalarInput draws a 256-bit value, saturating or clearing limbs
// often so that carries chain through them; about 2^−128 of them are ≥ n
// unless the top limbs saturate, which they do one time in 64.
func randScalarInput(rng *rand.Rand) *big.Int {
	v := new(big.Int)
	for j := 0; j < 4; j++ {
		l := rng.Uint64()
		switch rng.Intn(8) {
		case 0:
			l = ^uint64(0)
		case 1:
			l = 0
		}
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(l))
	}
	return v
}

func TestScalarDifferential(t *testing.T) {
	edges := scalarEdges()
	for _, a := range edges {
		for _, b := range edges {
			checkScalarOps(t, a, b, true)
		}
	}
	rng := rand.New(rand.NewSource(256))
	pairs := 100_000
	if testing.Short() {
		pairs = 5_000
	}
	batch := make([]scalarVal, 0, 17)
	var want []*big.Int
	for i := 0; i < pairs; i++ {
		a, b := randScalarInput(rng), randScalarInput(rng)
		checkScalarOps(t, a, b, true)
		// Batch inversion over runs of 1 to 17 of the nonzero operands.
		if x := new(big.Int).Mod(a, curveN); x.Sign() != 0 {
			batch = append(batch, mustScalar(x))
			want = append(want, x)
		}
		if len(batch) == i%17+1 {
			batchInverse(batch)
			if !refBatchModInverse(want, curveN) {
				t.Fatal("reference batch inverse failed")
			}
			for j := range batch {
				if batch[j].big().Cmp(want[j]) != 0 {
					t.Fatalf("batch inverse element %d of %d differs", j, len(batch))
				}
			}
			batch, want = batch[:0], want[:0]
		}
	}
}

// TestScalarReduce512 feeds reduce512 raw 512-bit values, beyond the
// products of reduced operands that mul produces.
func TestScalarReduce512(t *testing.T) {
	rng := rand.New(rand.NewSource(512))
	check := func(r [8]uint64) {
		t.Helper()
		want := new(big.Int)
		for i := 7; i >= 0; i-- {
			want.Lsh(want, 64).Or(want, new(big.Int).SetUint64(r[i]))
		}
		want.Mod(want, curveN)
		var z scalarVal
		in := r
		z.reduce512(&in)
		if z.big().Cmp(want) != 0 {
			t.Fatalf("reduce512(%x) = %x, want %x", r, z.big(), want)
		}
	}
	ones := ^uint64(0)
	check([8]uint64{ones, ones, ones, ones, ones, ones, ones, ones})
	check([8]uint64{0, 0, 0, 0, ones, ones, ones, ones})
	check(scalarToWide(scalarN))
	n1 := scalarN
	n1[0]--
	check(scalarToWide(n1))
	for i := 0; i < 20_000; i++ {
		var r [8]uint64
		for j := range r {
			r[j] = rng.Uint64()
			switch rng.Intn(8) {
			case 0:
				r[j] = ones
			case 1:
				r[j] = 0
			}
		}
		check(r)
	}
}

func scalarToWide(s scalarVal) (r [8]uint64) {
	copy(r[:], s[:])
	return r
}

func TestScalarSetBigRange(t *testing.T) {
	cases := []struct {
		v  *big.Int
		ok bool
	}{
		{nil, false},
		{big.NewInt(-1), false},
		{new(big.Int), true},
		{new(big.Int).Sub(curveN, big.NewInt(1)), true},
		{curveN, false},
		{new(big.Int).Lsh(big.NewInt(1), 256), false},
	}
	for _, c := range cases {
		var s scalarVal
		s[0] = 7
		if ok := s.setBig(c.v); ok != c.ok || (!ok && !s.isZero()) {
			t.Errorf("setBig(%v) = %v (%x), want %v", c.v, ok, s, c.ok)
		}
	}
}

func FuzzScalarDifferential(f *testing.F) {
	f.Add([]byte{0}, []byte{1})
	f.Add(curveN.Bytes(), new(big.Int).Sub(curveN, big.NewInt(1)).Bytes())
	f.Add(new(big.Int).Sub(two256, big.NewInt(1)).Bytes(), halfN.Bytes())
	f.Fuzz(func(t *testing.T, ba, bb []byte) {
		if len(ba) > 32 || len(bb) > 32 {
			return
		}
		checkScalarOps(t, new(big.Int).SetBytes(ba), new(big.Int).SetBytes(bb), true)
		// The GLV split of a reduced scalar.
		checkSplit(t, new(big.Int).Mod(new(big.Int).SetBytes(ba), curveN), false)
	})
}

func TestNonceHMACDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(6979))
	// The HMAC itself, at every message length the buffer admits.
	for n := 0; n <= hmacMaxMsg; n++ {
		var key [32]byte
		rng.Read(key[:])
		msg := make([]byte, n)
		rng.Read(msg)
		mac := hmac.New(sha256.New, key[:])
		mac.Write(msg)
		if got := hmacSHA256(&key, msg); !bytes.Equal(got[:], mac.Sum(nil)) {
			t.Fatalf("hmacSHA256 differs from crypto/hmac at length %d", n)
		}
	}
	// The nonce stream, state by state: seeding, candidates, and the retry
	// step that follows a rejected candidate.
	sameState := func(step string, g *nonceGenerator, ref *refNonceGenerator) {
		t.Helper()
		if !bytes.Equal(g.k[:], ref.k) || !bytes.Equal(g.v[:], ref.v) {
			t.Fatalf("%s: K, V differ from the crypto/hmac generator", step)
		}
	}
	for i := 0; i < 500; i++ {
		key := PrivateKeyFromSeed([]byte(fmt.Sprint("nonce ", i)))
		var digest [32]byte
		rng.Read(digest[:])
		if i%50 == 0 {
			copy(digest[:], curveN.Bytes()) // digest ≥ n: bits2octets reduces it
			digest[31] += byte(i / 50)
		}
		d, z := mustScalar(key.D), hashToInt(digest)
		g := newNonceGenerator(&d, &z)
		ref := newRefNonceGenerator(key.D, digest)
		sameState("seed", &g, ref)
		for j := 0; j < 3; j++ {
			k, ok := g.next()
			want := ref.next()
			if !ok || want == nil || k.big().Cmp(want) != 0 {
				t.Fatalf("candidate %d differs from the crypto/hmac generator", j)
			}
			sameState("candidate", &g, ref)
			g.retry()
			ref.k = refHMACSHA256(ref.k, ref.v, []byte{0x00})
			ref.v = refHMACSHA256(ref.k, ref.v)
			sameState("retry", &g, ref)
		}
	}
	// Whole signatures, on math/big throughout, for a spread of keys.
	for i := 0; i < 64; i++ {
		key := PrivateKeyFromSeed([]byte(fmt.Sprint("sign ", i)))
		var digest [32]byte
		rng.Read(digest[:])
		got, err := Sign(key, digest)
		if err != nil {
			t.Fatal(err)
		}
		want := refSign(key, digest)
		if got != want {
			t.Fatalf("signature %d differs from the math/big reference", i)
		}
	}
}

func TestSignRejectsOutOfRangeKey(t *testing.T) {
	for _, d := range []*big.Int{nil, new(big.Int), big.NewInt(-1), curveN} {
		if _, err := Sign(&PrivateKey{D: d}, [32]byte{1}); err != ErrInvalidKey {
			t.Errorf("Sign with D = %v: err %v, want ErrInvalidKey", d, err)
		}
	}
}

// TestCryptoAllocations holds the shipped paths to their allocation
// budget: the scalar arithmetic, the nonce HMAC and the per-call tables
// run on the stack, so what remains is the *big.Int boundary and, in the
// batch entry points, one buffer per batch-wide array.
func TestCryptoAllocations(t *testing.T) {
	key, digest := PrivateKeyFromSeed([]byte("allocations")), [32]byte{3}
	sig, err := Sign(key, digest)
	if err != nil {
		t.Fatal(err)
	}
	_, ks, digests, sigs := knownSignerFixture(t, 32)
	cases := []struct {
		name string
		max  float64
		run  func()
	}{
		{"Sign", 8, func() { _, _ = Sign(key, digest) }},
		{"RecoverAddress", 8, func() { _, _ = RecoverAddress(digest, sig) }},
		{"Verify", 8, func() { Verify(key.Pub, digest, sig) }},
		// A quarter of the 1,760 and 322 the math/big scalars took.
		{"RecoverAddressBatch/32", 440, func() { RecoverAddressBatch(digests, sigs) }},
		{"RecoverBatchMatches/32", 80, func() { ks.RecoverBatchMatches(digests, sigs) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(20, c.run); got > c.max {
			t.Errorf("%s: %.0f allocs per call, budget %.0f", c.name, got, c.max)
		}
	}
}

func BenchmarkScalarInverse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]*big.Int, 64)
	for i := range xs {
		xs[i] = randScalar(rng)
	}
	b.Run("safegcd", func(b *testing.B) {
		ss := make([]scalarVal, len(xs))
		for i := range xs {
			ss[i] = mustScalar(xs[i])
		}
		b.ReportAllocs()
		var z scalarVal
		for i := 0; i < b.N; i++ {
			z.inv(&ss[i%len(ss)])
		}
		benchScalar = z
	})
	b.Run("big.ModInverse", func(b *testing.B) {
		b.ReportAllocs()
		z := new(big.Int)
		for i := 0; i < b.N; i++ {
			z.ModInverse(xs[i%len(xs)], curveN)
		}
	})
}

func BenchmarkSplitScalar(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	ss := make([]scalarVal, 64)
	for i := range ss {
		ss[i] = mustScalar(randScalar(rng))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k1, _, _, _ := splitScalar(&ss[i%len(ss)])
		benchScalar = k1
	}
}

var benchScalar scalarVal
