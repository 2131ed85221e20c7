package secp256k1

import (
	"math/big"
	"math/rand"
	"testing"
)

// fieldVal is held to math/big: every operation is recomputed with
// big.Int modulo p and the canonical 32-byte encodings compared.

var two256 = new(big.Int).Lsh(big.NewInt(1), 256)

// fieldOf converts a reduced big.Int to a fieldVal through setBytes.
func fieldOf(t testing.TB, v *big.Int) fieldVal {
	t.Helper()
	var b [32]byte
	v.FillBytes(b[:])
	var f fieldVal
	if !f.setBytes(&b) {
		t.Fatalf("setBytes rejected %x", b)
	}
	return f
}

// checkFieldOps compares every cheap fieldVal operation on (a, b), both in
// [0, p), against math/big; slow additionally covers inv and sqrt.
func checkFieldOps(t testing.TB, a, b *big.Int, slow bool) {
	t.Helper()
	fa, fb := fieldOf(t, a), fieldOf(t, b)
	if got := fa.big(); got.Cmp(a) != 0 {
		t.Fatalf("bytes/big round trip of %x gave %x", a, got)
	}
	want := new(big.Int)
	check := func(op string, got fieldVal) {
		t.Helper()
		want.Mod(want, curveP)
		if got.big().Cmp(want) != 0 {
			t.Fatalf("%s(%x, %x) = %x, want %x", op, a, b, got.big(), want)
		}
	}
	var z fieldVal
	z.mul(&fa, &fb)
	want.Mul(a, b)
	check("mul", z)
	z.sqr(&fa)
	want.Mul(a, a)
	check("sqr", z)
	z.add(&fa, &fb)
	want.Add(a, b)
	check("add", z)
	z.sub(&fa, &fb)
	want.Sub(a, b)
	check("sub", z)
	z.neg(&fa)
	want.Neg(a)
	check("neg", z)
	z.double(&fa)
	want.Lsh(a, 1)
	check("double", z)

	// Receiver aliasing an operand must not change the result.
	z = fa
	z.mul(&z, &fb)
	want.Mul(a, b)
	check("mul (aliased)", z)
	z = fa
	z.sqr(&z)
	want.Mul(a, a)
	check("sqr (aliased)", z)
	z = fb
	z.sub(&fa, &z)
	want.Sub(a, b)
	check("sub (aliased)", z)

	if !slow {
		return
	}
	z.inv(&fa)
	if a.Sign() == 0 {
		want.SetInt64(0)
	} else {
		want.ModInverse(a, curveP)
	}
	check("inv", z)
	root := new(big.Int).ModSqrt(a, curveP)
	ok := z.sqrt(&fa)
	if ok != (root != nil) {
		t.Fatalf("sqrt(%x): residue=%v, math/big says %v", a, ok, root != nil)
	}
	if ok {
		// Either root is acceptable; its square must be a.
		want.Mul(z.big(), z.big())
		want.Mod(want, curveP)
		if want.Cmp(a) != 0 {
			t.Fatalf("sqrt(%x) = %x does not square back", a, z.big())
		}
	}
}

// fieldEdges are the operands next to every boundary of the representation:
// the ends of the range, single saturated limbs, and the factor pairs of
// 2^256 − 1 and 2^256 − 2^32, whose exact products land in [p, 2^256) and
// so reach the final conditional subtraction with nothing to fold.
func fieldEdges() []*big.Int {
	sub := func(x *big.Int, d int64) *big.Int { return new(big.Int).Sub(x, big.NewInt(d)) }
	pow := func(n uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), n) }
	return []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(7),
		sub(curveP, 1), sub(curveP, 2), sub(curveP, 3),
		new(big.Int).Rsh(curveP, 1), new(big.Int).Add(new(big.Int).Rsh(curveP, 1), big.NewInt(1)),
		sub(pow(64), 1), pow(64), sub(pow(128), 1), pow(128), new(big.Int).Add(pow(128), big.NewInt(1)),
		sub(pow(192), 1), pow(192), sub(pow(224), 1), pow(32), pow(255), sub(pow(255), 1),
		new(big.Int).Lsh(sub(pow(64), 1), 64), new(big.Int).Lsh(sub(pow(64), 1), 128),
		sub(pow(256), 1<<33), // all-ones top limbs, below p
		big.NewInt(pFold), big.NewInt(pFold - 1), big.NewInt(pFold + 1),
		new(big.Int).Set(bigGLVBeta),
	}
}

func TestFieldSetBytesRange(t *testing.T) {
	cases := []struct {
		v  *big.Int
		ok bool
	}{
		{new(big.Int), true},
		{new(big.Int).Sub(curveP, big.NewInt(1)), true},
		{curveP, false},
		{new(big.Int).Add(curveP, big.NewInt(1)), false},
		{new(big.Int).Sub(two256, big.NewInt(1)), false},
	}
	for _, tc := range cases {
		var b [32]byte
		tc.v.FillBytes(b[:])
		f := fieldVal{1, 2, 3, 4}
		if got := f.setBytes(&b); got != tc.ok {
			t.Errorf("setBytes(%x) = %v, want %v", b, got, tc.ok)
		}
		if !tc.ok && !f.isZero() {
			t.Errorf("rejected setBytes(%x) left %v, want zero", b, f)
		}
		if got := f.setBig(tc.v); got != tc.ok {
			t.Errorf("setBig(%x) = %v, want %v", tc.v, got, tc.ok)
		}
	}
	var f fieldVal
	if f.setBig(nil) || f.setBig(big.NewInt(-1)) || f.setBig(two256) {
		t.Error("setBig accepted nil, a negative value, or 2^256")
	}
}

func TestFieldDifferential(t *testing.T) {
	edges := fieldEdges()
	for _, a := range edges {
		for _, b := range edges {
			checkFieldOps(t, a, b, true)
		}
	}
	// 100k seeded random pairs; each draw is also paired with an edge so
	// every edge meets many random partners. inv and sqrt (two ~250-step
	// exponentiations each) run on every 16th pair.
	rng := rand.New(rand.NewSource(0x5ec9256))
	draw := func() *big.Int {
		var buf [32]byte
		rng.Read(buf[:])
		v := new(big.Int).SetBytes(buf[:])
		return v.Mod(v, curveP)
	}
	for i := 0; i < 100_000; i++ {
		a, b := draw(), draw()
		if i%4 == 0 {
			b = edges[(i/4)%len(edges)]
		}
		checkFieldOps(t, a, b, i%16 == 0)
	}
}

// TestFieldReduce512 drives the reduction with arbitrary 512-bit inputs,
// including ones no product of two field elements can reach: all-ones makes
// the second fold itself carry out of 2^256.
func TestFieldReduce512(t *testing.T) {
	rng := rand.New(rand.NewSource(512))
	check := func(r [8]uint64) {
		t.Helper()
		want := new(big.Int)
		for i := 7; i >= 0; i-- {
			want.Lsh(want, 64)
			want.Or(want, new(big.Int).SetUint64(r[i]))
		}
		want.Mod(want, curveP)
		var z fieldVal
		z.reduce512(r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7])
		if z.big().Cmp(want) != 0 {
			t.Fatalf("reduce512(%x) = %x, want %x", r, z.big(), want)
		}
	}
	ones := ^uint64(0)
	check([8]uint64{ones, ones, ones, ones, ones, ones, ones, ones})
	check([8]uint64{0, 0, 0, 0, ones, ones, ones, ones})
	check([8]uint64{ones, ones, ones, ones, 0, 0, 0, 0})
	check([8]uint64{ones - pFold + 1, ones, ones, ones, 0, 0, 0, 0}) // p
	check([8]uint64{ones - pFold, ones, ones, ones, 0, 0, 0, 0})     // p − 1
	for i := 0; i < 20_000; i++ {
		var r [8]uint64
		for j := range r {
			r[j] = rng.Uint64()
			// Saturate or clear limbs often: carries chain through them.
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

func FuzzFieldDifferential(f *testing.F) {
	f.Add([]byte{0}, []byte{1})
	f.Add(curveP.Bytes(), new(big.Int).Sub(curveP, big.NewInt(1)).Bytes())
	f.Add(new(big.Int).Sub(two256, big.NewInt(1)).Bytes(), []byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, ba, bb []byte) {
		a := new(big.Int).SetBytes(ba)
		b := new(big.Int).SetBytes(bb)
		checkFieldOps(t, a.Mod(a, curveP), b.Mod(b, curveP), true)
	})
}

func BenchmarkFieldMul(b *testing.B) {
	x, y := generator.x, generator.y
	for i := 0; i < b.N; i++ {
		x.mul(&x, &y)
	}
	benchField = x
}

func BenchmarkFieldSqr(b *testing.B) {
	x := generator.x
	for i := 0; i < b.N; i++ {
		x.sqr(&x)
	}
	benchField = x
}

var benchField fieldVal
