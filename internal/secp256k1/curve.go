// Package secp256k1 implements the secp256k1 elliptic curve and the
// recoverable ECDSA signature scheme used by Ethereum: deterministic
// (RFC 6979) nonces, low-s normalization, 65-byte r‖s‖v signatures, and
// public-key recovery (ecrecover). The implementation is pure Go, standard
// library only. Curve arithmetic runs on an allocation-free 4×64-bit field
// type (field.go, point.go) under a wNAF/GLV ladder for verification and
// recovery and a fixed-base comb for signing; *big.Int appears only at the
// exported boundary (keys and signature scalars) and in scalar arithmetic
// mod the group order.
package secp256k1

import "math/big"

// Curve parameters for secp256k1: y² = x³ + 7 over F_p.
var (
	curveP  = mustBig("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
	curveN  = mustBig("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
	curveGx = mustBig("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
	curveGy = mustBig("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")
	halfN   = new(big.Int).Rsh(curveN, 1)
)

func mustBig(hex string) *big.Int {
	v, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		panic("secp256k1: bad curve constant " + hex)
	}
	return v
}
