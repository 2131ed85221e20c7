package secp256k1

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"
)

// fieldVal is held to math/big: every operation is recomputed with
// big.Int modulo p and the canonical 32-byte encodings compared. Operands
// cover both forms of the residues that have two: x and x + p for
// x < 2^256 − p = pFold.

var two256 = new(big.Int).Lsh(big.NewInt(1), 256)

// fieldRaw loads any value below 2^256 into the limbs as is, the way a
// weakly reduced result may hold it.
func fieldRaw(v *big.Int) (f fieldVal) {
	var b [32]byte
	v.FillBytes(b[:])
	for i := range f {
		f[i] = binary.BigEndian.Uint64(b[24-8*i:])
	}
	return f
}

// refBig returns the limbs of f as a big.Int, before any reduction.
func (f *fieldVal) refBig() *big.Int {
	v := new(big.Int)
	for i := 3; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(f[i]))
	}
	return v
}

// withTwins returns xs followed by x + p for every x in xs below pFold: the
// second, non-canonical form of the same residue.
func withTwins(xs []*big.Int) []*big.Int {
	out := append([]*big.Int(nil), xs...)
	for _, x := range xs {
		if x.Cmp(big.NewInt(pFold)) < 0 {
			out = append(out, new(big.Int).Add(x, curveP))
		}
	}
	return out
}

// checkFieldOps compares every cheap fieldVal operation on (a, b), both
// below 2^256 and loaded as is, against math/big on their residues mod p;
// slow additionally covers inv and sqrt.
func checkFieldOps(t testing.TB, a, b *big.Int, slow bool) {
	t.Helper()
	fa, fb := fieldRaw(a), fieldRaw(b)
	ma, mb := new(big.Int).Mod(a, curveP), new(big.Int).Mod(b, curveP)
	if got := fa.big(); got.Cmp(ma) != 0 {
		t.Fatalf("bytes/big round trip of %x gave %x", a, got)
	}
	if fa.isZero() != (ma.Sign() == 0) || fa.isOdd() != (ma.Bit(0) == 1) {
		t.Fatalf("isZero/isOdd of %x = %v/%v", a, fa.isZero(), fa.isOdd())
	}
	if fa.equal(&fb) != (ma.Cmp(mb) == 0) {
		t.Fatalf("equal(%x, %x) = %v", a, b, fa.equal(&fb))
	}
	want := new(big.Int)
	check := func(op string, got fieldVal) {
		t.Helper()
		want.Mod(want, curveP)
		if got.big().Cmp(want) != 0 {
			t.Fatalf("%s(%x, %x) = %x, want %x", op, a, b, got.big(), want)
		}
	}
	checkMulSqr(t, fa, fb)
	var z fieldVal
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
	z = fb
	z.sub(&fa, &z)
	want.Sub(a, b)
	check("sub (aliased)", z)

	if !slow {
		return
	}
	z.inv(&fa)
	if ma.Sign() == 0 {
		want.SetInt64(0)
	} else {
		want.ModInverse(ma, curveP)
	}
	check("inv", z)
	root := new(big.Int).ModSqrt(ma, curveP)
	ok := z.sqrt(&fa)
	if ok != (root != nil) {
		t.Fatalf("sqrt(%x): residue=%v, math/big says %v", a, ok, root != nil)
	}
	if ok {
		// Either root is acceptable; its square must be a.
		want.Mul(z.big(), z.big())
		want.Mod(want, curveP)
		if want.Cmp(ma) != 0 {
			t.Fatalf("sqrt(%x) = %x does not square back", a, z.big())
		}
	}
}

// checkMulSqr holds mul and sqr, on amd64 the MULX/ADX kernel, and
// mulGeneric and sqrGeneric to math/big's residues of a·b and a², and the
// kernel's limbs to the generic code's: both return the same weakly
// reduced form, not only the same residue. Each runs once more with its
// receiver aliasing x, y, or both.
func checkMulSqr(t testing.TB, fa, fb fieldVal) {
	t.Helper()
	a, b := fa.refBig(), fb.refBig()
	ab, aa := new(big.Int).Mul(a, b), new(big.Int).Mul(a, a)
	ab.Mod(ab, curveP)
	aa.Mod(aa, curveP)
	check := func(op string, kernel, generic fieldVal, want *big.Int) {
		t.Helper()
		if kernel != generic {
			t.Fatalf("%s(%x, %x): kernel limbs %x, generic limbs %x", op, a, b, kernel, generic)
		}
		if got := kernel.big(); got.Cmp(want) != 0 {
			t.Fatalf("%s(%x, %x) = %x, want %x", op, a, b, got, want)
		}
	}
	var k, g fieldVal
	k.mul(&fa, &fb)
	mulGeneric(&g, &fa, &fb)
	check("mul", k, g, ab)
	k.sqr(&fa)
	sqrGeneric(&g, &fa)
	check("sqr", k, g, aa)

	k, g = fa, fa
	k.mul(&k, &fb)
	mulGeneric(&g, &g, &fb)
	check("mul (z = x)", k, g, ab)
	k, g = fb, fb
	k.mul(&fa, &k)
	mulGeneric(&g, &fa, &g)
	check("mul (z = y)", k, g, ab)
	k, g = fa, fa
	k.mul(&k, &k)
	mulGeneric(&g, &g, &g)
	check("mul (z = x = y)", k, g, aa)
	k, g = fa, fa
	k.sqr(&k)
	sqrGeneric(&g, &g)
	check("sqr (z = x)", k, g, aa)
}

// fieldEdges are the operands next to every boundary of the representation:
// the ends of the range, single saturated limbs, and the factor pairs of
// 2^256 − 1 and 2^256 − 2^32, whose exact products land in [p, 2^256) and
// so leave mul with nothing to fold and a second form to read.
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
	edges := withTwins(fieldEdges())
	for _, a := range edges {
		for _, b := range edges {
			checkFieldOps(t, a, b, true)
		}
	}
	// 100k seeded random pairs; each draw is also paired with an edge so
	// every edge meets many random partners, and every 8th is the second
	// form of a residue below pFold. inv and sqrt run on every 16th pair.
	rng := rand.New(rand.NewSource(0x5ec9256))
	draw := func(twin bool) *big.Int {
		if twin {
			return new(big.Int).Add(big.NewInt(rng.Int63n(pFold)), curveP)
		}
		var buf [32]byte
		rng.Read(buf[:])
		v := new(big.Int).SetBytes(buf[:])
		return v.Mod(v, curveP)
	}
	for i := 0; i < 100_000; i++ {
		a, b := draw(i%8 == 1), draw(i%8 == 6)
		if i%4 == 0 {
			b = edges[(i/4)%len(edges)]
		}
		checkFieldOps(t, a, b, i%16 == 0)
	}
}

// TestFieldCanonicalReadsKeepReceiver holds the canonical reads to
// normalizing a copy: the point tables they read are shared between
// goroutines. p and p + 1 are second forms, of 0 and 1.
func TestFieldCanonicalReadsKeepReceiver(t *testing.T) {
	for _, v := range []*big.Int{curveP, new(big.Int).Add(curveP, big.NewInt(1))} {
		x := fieldRaw(v)
		var inv fieldVal
		x.bytes()
		x.isZero()
		x.isOdd()
		x.equal(&fieldOne)
		inv.inv(&x)
		if x != fieldRaw(v) {
			t.Fatalf("a canonical read of %x changed it to %x", v, x)
		}
	}
}

// checkFieldInverse holds inv to big.Int.ModInverse on a value below 2^256
// loaded as is; the inverse of zero is zero.
func checkFieldInverse(t testing.TB, x *big.Int) {
	t.Helper()
	fx := fieldRaw(x)
	r := new(big.Int).Mod(x, curveP)
	want := new(big.Int)
	if r.Sign() != 0 {
		want.ModInverse(r, curveP)
	}
	var z fieldVal
	z.inv(&fx)
	if z.big().Cmp(want) != 0 {
		t.Fatalf("inv(%x) = %x, want %x", x, z.big(), want)
	}
}

func TestFieldInverseDifferential(t *testing.T) {
	xs := withTwins(fieldEdges())
	xs = append(xs, new(big.Int).Sub(two256, big.NewInt(1)))
	for _, x := range xs {
		checkFieldInverse(t, x)
	}
	rng := rand.New(rand.NewSource(0x1a7e5e))
	for i := 0; i < 20_000; i++ {
		var buf [32]byte
		rng.Read(buf[:])
		x := new(big.Int).SetBytes(buf[:])
		switch i % 4 {
		case 0: // the second form of a residue below pFold
			x.Add(x.Mod(x, big.NewInt(pFold)), curveP)
		case 1: // small, so the gcd runs short
			x.Rsh(x, uint(rng.Intn(256)))
		}
		checkFieldInverse(t, x)
	}
}

func FuzzFieldInverseDifferential(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add(curveP.Bytes())
	f.Add(new(big.Int).Sub(curveP, big.NewInt(1)).Bytes())
	f.Add(new(big.Int).Sub(two256, big.NewInt(1)).Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		x := new(big.Int).SetBytes(b)
		checkFieldInverse(t, x.Mod(x, two256))
	})
}

// TestFieldReduce512 drives the 512-bit fold that ends mul and sqr with
// operands anywhere below 2^256 whose limbs are often saturated or clear,
// so carries chain through every fold: (2^256 − 1)² has all-ones high
// limbs, x·1 for x ≥ p reaches the fold with nothing to fold, and
// (p + 2^32)² carries out of the second fold into the third.
func TestFieldReduce512(t *testing.T) {
	rng := rand.New(rand.NewSource(512))
	check := func(x, y [4]uint64) {
		t.Helper()
		checkMulSqr(t, fieldVal(x), fieldVal(y))
	}
	ones := ^uint64(0)
	p := [4]uint64(fieldP)
	check([4]uint64{ones, ones, ones, ones}, [4]uint64{ones, ones, ones, ones})
	check([4]uint64{ones, ones, ones, ones}, [4]uint64{1})
	check(p, [4]uint64{1})
	check([4]uint64{p[0] + 1<<32, ones, ones, ones}, [4]uint64{p[0] + 1<<32, ones, ones, ones})
	check([4]uint64{p[0] - 1, ones, ones, ones}, [4]uint64{1})
	limb := func() uint64 {
		// Saturate or clear limbs often: carries chain through them.
		switch rng.Intn(8) {
		case 0:
			return ones
		case 1:
			return 0
		}
		return rng.Uint64()
	}
	for i := 0; i < 20_000; i++ {
		check([4]uint64{limb(), limb(), limb(), limb()}, [4]uint64{limb(), limb(), limb(), limb()})
	}
}

// FuzzFieldDifferential takes each operand below 2^256 as is, so values
// in [p, 2^256) are second forms; a set twin flag moves the operand there,
// to its residue mod pFold plus p.
func FuzzFieldDifferential(f *testing.F) {
	f.Add([]byte{0}, []byte{1}, false, false)
	f.Add([]byte{0}, []byte{0}, true, false)
	f.Add(curveP.Bytes(), new(big.Int).Sub(curveP, big.NewInt(1)).Bytes(), false, false)
	f.Add(new(big.Int).Sub(two256, big.NewInt(1)).Bytes(), []byte{0xff, 0xff, 0xff, 0xff}, false, true)
	operand := func(b []byte, twin bool) *big.Int {
		x := new(big.Int).SetBytes(b)
		if twin {
			return x.Add(x.Mod(x, big.NewInt(pFold)), curveP)
		}
		return x.Mod(x, two256)
	}
	f.Fuzz(func(t *testing.T, ba, bb []byte, twinA, twinB bool) {
		checkFieldOps(t, operand(ba, twinA), operand(bb, twinB), true)
	})
}

// BenchmarkFieldMul and BenchmarkFieldSqr time one dependent chain of
// operations each through the Go code and through mul and sqr, which on
// amd64 with BMI2 and ADX run the MULX kernel and elsewhere the Go code.
func BenchmarkFieldMul(b *testing.B) {
	b.Run("generic", func(b *testing.B) {
		x, y := generator.x, generator.y
		for i := 0; i < b.N; i++ {
			mulGeneric(&x, &x, &y)
		}
		benchField = x
	})
	b.Run("kernel", func(b *testing.B) {
		x, y := generator.x, generator.y
		for i := 0; i < b.N; i++ {
			x.mul(&x, &y)
		}
		benchField = x
	})
}

func BenchmarkFieldSqr(b *testing.B) {
	b.Run("generic", func(b *testing.B) {
		x := generator.x
		for i := 0; i < b.N; i++ {
			sqrGeneric(&x, &x)
		}
		benchField = x
	})
	b.Run("kernel", func(b *testing.B) {
		x := generator.x
		for i := 0; i < b.N; i++ {
			x.sqr(&x)
		}
		benchField = x
	})
}

// BenchmarkFieldInverse is BenchmarkScalarInverse's twin, mod p.
func BenchmarkFieldInverse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]*big.Int, 64)
	fs := make([]fieldVal, len(xs))
	for i := range xs {
		var buf [32]byte
		rng.Read(buf[:])
		xs[i] = new(big.Int).Mod(new(big.Int).SetBytes(buf[:]), curveP)
		fs[i] = fieldRaw(xs[i])
	}
	b.Run("safegcd", func(b *testing.B) {
		b.ReportAllocs()
		var z fieldVal
		for i := 0; i < b.N; i++ {
			z.inv(&fs[i%len(fs)])
		}
		benchField = z
	})
	b.Run("big.ModInverse", func(b *testing.B) {
		b.ReportAllocs()
		z := new(big.Int)
		for i := 0; i < b.N; i++ {
			z.ModInverse(xs[i%len(xs)], curveP)
		}
	})
}

var benchField fieldVal
