package secp256k1

import "math/bits"

// Modular inversion for both moduli of the package, the field prime p and
// the group order n: Bernstein and Yang's safegcd in the variable-time form
// of libsecp256k1's modinv64_var. Batches of 62 divsteps on the low limbs
// produce a 2×2 transition matrix, which is then applied to the full-width
// f, g (the gcd pair, starting at the modulus and x) and d, e (their Bézout
// coefficients) in signed 62-bit limbs.
//
// Its running time depends on x. Only public values (signature scalars,
// point coordinates derived from them) and, in Sign, the nonce k and the
// Z coordinate of k·G pass through it (see Sign for what that leaks).

// modInfo describes a modulus m for modInv: m in signed62 form and
// m⁻¹ mod 2^62.
type modInfo struct {
	m     signed62
	inv62 uint64
}

var (
	// p = 2^256 − 0x1000003d1.
	fieldModInfo = modInfo{signed62{-0x1000003d1, 0, 0, 0, 256}, 0x27c7f6e22ddacacf}
	// n, with a negative limb that leaves limb 3 zero.
	scalarModInfo = modInfo{signed62{0x3fd25e8cd0364141, 0x2abb739abd2280ee, -0x15, 0, 256}, 0x34f20099aa774ec1}
)

// modInv returns x⁻¹ mod m for x in [0, m), both as four little-endian
// 64-bit limbs; the inverse of zero is zero.
func modInv(x *[4]uint64, mi *modInfo) [4]uint64 {
	var d, e, f, g signed62
	e[0] = 1
	f = mi.m
	g = toSigned62(x)
	eta := int64(-1) // −δ, with δ = 1 initially
	n := len(f)
	for {
		var t trans2x2
		eta = divsteps62(eta, uint64(f[0]), uint64(g[0]), &t)
		updateDE(&d, &e, &t, mi)
		updateFG(n, &f, &g, &t)
		if g[0] == 0 {
			var rest int64
			for j := 1; j < n; j++ {
				rest |= g[j]
			}
			if rest == 0 {
				break
			}
		}
		// Drop the top limb once it is 0 or −1 in both f and g, folding
		// its sign into the limb below.
		fn, gn := f[n-1], g[n-1]
		cond := int64(n-2) >> 63
		cond |= fn ^ fn>>63
		cond |= gn ^ gn>>63
		if cond == 0 {
			f[n-2] |= int64(uint64(fn) << 62)
			g[n-2] |= int64(uint64(gn) << 62)
			n--
		}
	}
	// g = 0 and f = ±gcd(m, x) = ±1, so ±d is the inverse.
	normalize62(&d, f[n-1], mi)
	return fromSigned62(&d)
}

// signed62 is a signed integer Σ v[i]·2^(62i) in five limbs, every limb
// but the top one in (−2^62, 2^62).
type signed62 [5]int64

const mask62 = 1<<62 - 1

func toSigned62(x *[4]uint64) signed62 {
	return signed62{
		int64(x[0] & mask62),
		int64((x[0]>>62 | x[1]<<2) & mask62),
		int64((x[1]>>60 | x[2]<<4) & mask62),
		int64((x[2]>>58 | x[3]<<6) & mask62),
		int64(x[3] >> 56),
	}
}

// fromSigned62 returns a signed62 value in [0, 2^256) with limbs in
// [0, 2^62) as four 64-bit limbs.
func fromSigned62(a *signed62) [4]uint64 {
	return [4]uint64{
		uint64(a[0]) | uint64(a[1])<<62,
		uint64(a[1])>>2 | uint64(a[2])<<60,
		uint64(a[2])>>4 | uint64(a[3])<<58,
		uint64(a[3])>>6 | uint64(a[4])<<56,
	}
}

// trans2x2 is the transition matrix of 62 divsteps, scaled by 2^62:
// (f', g') = (u·f + v·g, q·f + r·g) / 2^62.
type trans2x2 struct{ u, v, q, r int64 }

// divsteps62 performs 62 divsteps on the low 64 bits f0, g0 of f and g
// (f odd), runs of zero bits of g at a time, writes their transition
// matrix to t and returns the new eta.
func divsteps62(eta int64, f0, g0 uint64, t *trans2x2) int64 {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	f, g := f0, g0
	i := 62
	for {
		// A sentinel bit at i stops the count at the divsteps left.
		zeros := bits.TrailingZeros64(g | ^uint64(0)<<i)
		g >>= zeros
		u <<= zeros
		v <<= zeros
		eta -= int64(zeros)
		i -= zeros
		if i == 0 {
			break
		}
		// f and g are odd here. While eta < 0, swap them as (g, −f).
		// No more than i bits can be cancelled (the batch ends there), nor
		// more than eta+1 (eta changes sign there).
		var w, m uint64
		if eta < 0 {
			eta = -eta
			f, g = g, -f
			u, q = q, -u
			v, r = r, -v
			// Cancel up to 6 bits of g with a multiple of f.
			m = (^uint64(0) >> (64 - min(int(eta)+1, i))) & 63
			w = (f * g * (f*f - 2)) & m
		} else {
			// Cancel up to 4 bits of g with a multiple of f.
			m = (^uint64(0) >> (64 - min(int(eta)+1, i))) & 15
			w = f + (((f + 1) & 4) << 1)
			w = (-w * g) & m
		}
		g += f * w
		q += u * w
		r += v * w
	}
	*t = trans2x2{int64(u), int64(v), int64(q), int64(r)}
	return eta
}

// int128 is a two's-complement 128-bit accumulator hi·2^64 + lo.
type int128 struct{ hi, lo uint64 }

// addMul adds a·b.
func (x *int128) addMul(a, b int64) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// Unsigned to signed product: subtract 2^64·b when a < 0, and the same
	// for b.
	hi -= uint64(a>>63)&uint64(b) + uint64(b>>63)&uint64(a)
	var c uint64
	x.lo, c = bits.Add64(x.lo, lo, 0)
	x.hi += hi + c
}

// shr62 shifts x right by 62 bits, arithmetically.
func (x *int128) shr62() {
	x.lo = x.lo>>62 | x.hi<<2
	x.hi = uint64(int64(x.hi) >> 62)
}

// updateDE sets (d, e) = t·(d, e) / 2^62 mod m. Adding the multiples md·m
// and me·m that clear the low 62 bits makes the division exact, and keeps
// d and e in (−2m, m).
func updateDE(d, e *signed62, t *trans2x2, mi *modInfo) {
	u, v, q, r := t.u, t.v, t.q, t.r
	sd, se := d[4]>>63, e[4]>>63
	md := (u & sd) + (v & se)
	me := (q & sd) + (r & se)
	var cd, ce int128
	cd.addMul(u, d[0])
	cd.addMul(v, e[0])
	ce.addMul(q, d[0])
	ce.addMul(r, e[0])
	md -= int64((mi.inv62*cd.lo + uint64(md)) & mask62)
	me -= int64((mi.inv62*ce.lo + uint64(me)) & mask62)
	cd.addMul(mi.m[0], md)
	ce.addMul(mi.m[0], me)
	cd.shr62()
	ce.shr62()
	for i := 1; i < 5; i++ {
		cd.addMul(u, d[i])
		cd.addMul(v, e[i])
		ce.addMul(q, d[i])
		ce.addMul(r, e[i])
		if mi.m[i] != 0 {
			cd.addMul(mi.m[i], md)
			ce.addMul(mi.m[i], me)
		}
		d[i-1] = int64(cd.lo & mask62)
		e[i-1] = int64(ce.lo & mask62)
		cd.shr62()
		ce.shr62()
	}
	d[4] = int64(cd.lo)
	e[4] = int64(ce.lo)
}

// updateFG sets (f, g) = t·(f, g) / 2^62 on their low n limbs; the
// division is exact by construction of t.
func updateFG(n int, f, g *signed62, t *trans2x2) {
	u, v, q, r := t.u, t.v, t.q, t.r
	var cf, cg int128
	cf.addMul(u, f[0])
	cf.addMul(v, g[0])
	cg.addMul(q, f[0])
	cg.addMul(r, g[0])
	cf.shr62()
	cg.shr62()
	for i := 1; i < n; i++ {
		fi, gi := f[i], g[i]
		cf.addMul(u, fi)
		cf.addMul(v, gi)
		cg.addMul(q, fi)
		cg.addMul(r, gi)
		f[i-1] = int64(cf.lo & mask62)
		g[i-1] = int64(cg.lo & mask62)
		cf.shr62()
		cg.shr62()
	}
	f[n-1] = int64(cf.lo)
	g[n-1] = int64(cg.lo)
}

// normalize62 maps a in (−2m, m) to a·sign(sign) mod m in [0, m), with
// canonical limbs.
func normalize62(a *signed62, sign int64, mi *modInfo) {
	addM := func(mask int64) {
		for i := range a {
			a[i] += mi.m[i] & mask
		}
	}
	carry := func() {
		for i := 0; i < 4; i++ {
			a[i+1] += a[i] >> 62
			a[i] &= mask62
		}
	}
	addM(a[4] >> 63) // now in (−m, m)
	neg := sign >> 63
	for i := range a {
		a[i] = (a[i] ^ neg) - neg
	}
	carry()
	addM(a[4] >> 63) // now in [0, m)
	carry()
}
