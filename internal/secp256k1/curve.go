// Package secp256k1 implements the secp256k1 elliptic curve and the
// recoverable ECDSA signature scheme used by Ethereum: deterministic
// (RFC 6979) nonces, low-s normalization, 65-byte r‖s‖v signatures, and
// public-key recovery (ecrecover). The implementation is pure Go, standard
// library only. Curve arithmetic runs on allocation-free 4×64-bit types
// for the field and for scalars mod the group order (field.go, scalar.go,
// point.go) under a wNAF/GLV ladder for verification and recovery and a
// fixed-base comb for signing, and the RFC 6979 HMAC hashes stack buffers;
// signatures hold their scalars as fixed-width bytes, so *big.Int appears
// only at the exported key boundary.
package secp256k1

import "math/big"

// Curve parameters for secp256k1: y² = x³ + 7 over F_p.
var (
	curveP  = mustBig("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
	curveGx = mustBig("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
	curveGy = mustBig("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")
)

func mustBig(hex string) *big.Int {
	v, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		panic("secp256k1: bad curve constant " + hex)
	}
	return v
}
