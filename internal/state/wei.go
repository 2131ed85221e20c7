package state

import (
	"encoding/binary"
	"math/big"
	"math/bits"

	"repro/internal/types"
)

// Wei is an unsigned 256-bit amount, the width of an EVM word: four
// 64-bit limbs, least significant first. Balances are Wei inside this
// package; *big.Int appears only at the exported boundary and is
// converted there without allocating.
type Wei [4]uint64

// WeiOf converts v, reporting false when v is negative or does not fit
// in 256 bits. A nil v is zero.
func WeiOf(v *big.Int) (Wei, bool) {
	var w Wei
	if v == nil {
		return w, true
	}
	if v.Sign() < 0 || v.BitLen() > 256 {
		return w, false
	}
	for i, d := range v.Bits() { // little-endian words of bits.UintSize
		if bits.UintSize == 64 {
			w[i] = uint64(d)
		} else {
			w[i/2] |= uint64(d) << (32 * (i % 2))
		}
	}
	return w, true
}

// Big returns w as a new *big.Int.
func (w Wei) Big() *big.Int {
	b := w.word()
	return new(big.Int).SetBytes(b[:])
}

// word returns w as a big-endian 32-byte word, the form journal entries
// keep a previous balance in.
func (w Wei) word() types.Hash {
	var b types.Hash
	for i, l := range w {
		binary.BigEndian.PutUint64(b[24-8*i:], l)
	}
	return b
}

// weiOfWord is the inverse of Wei.word.
func weiOfWord(b types.Hash) Wei {
	var w Wei
	for i := range w {
		w[i] = binary.BigEndian.Uint64(b[24-8*i:])
	}
	return w
}

// String formats w in decimal, as *big.Int's %s does.
func (w Wei) String() string { return w.Big().String() }

// IsZero reports whether w is zero.
func (w Wei) IsZero() bool { return w == Wei{} }

// Cmp returns -1, 0 or +1 as w is less than, equal to or greater than x.
func (w Wei) Cmp(x Wei) int {
	for i := len(w) - 1; i >= 0; i-- {
		switch {
		case w[i] < x[i]:
			return -1
		case w[i] > x[i]:
			return 1
		}
	}
	return 0
}

// Add returns w + x, reporting false when the sum overflows 256 bits.
func (w Wei) Add(x Wei) (Wei, bool) {
	var sum Wei
	var carry uint64
	for i := range w {
		sum[i], carry = bits.Add64(w[i], x[i], carry)
	}
	return sum, carry == 0
}

// Sub returns w - x; the caller has checked that x does not exceed w.
func (w Wei) Sub(x Wei) Wei {
	var diff Wei
	var borrow uint64
	for i := range w {
		diff[i], borrow = bits.Sub64(w[i], x[i], borrow)
	}
	return diff
}

// MulUint64 returns w × m, reporting false when the product overflows
// 256 bits.
func (w Wei) MulUint64(m uint64) (Wei, bool) {
	var prod Wei
	var carry uint64
	for i := range w {
		hi, lo := bits.Mul64(w[i], m)
		var c uint64
		prod[i], c = bits.Add64(lo, carry, 0)
		carry = hi + c
	}
	return prod, carry == 0
}
