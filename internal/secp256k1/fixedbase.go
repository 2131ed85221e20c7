package secp256k1

import (
	"math/big"
	"sync"
)

// Fixed-base scalar multiplication k·G for the signing hot path.
//
// Signing computes one k·G per signature (the ephemeral point R). The
// generator never changes, so the multiplication is evaluated against a
// precomputed comb table: 64 blocks of 4-bit windows,
//
//	table[i][d-1] = d · 2^(4i) · G     for d in 1..15,
//
// turning k·G into at most 64 mixed additions with zero doublings — the
// scalar is consumed one nibble at a time and every window's contribution
// is a single table lookup. The 960-point table is built once (lazily) and
// normalized to affine with one batched inversion.
//
// Differential tests pin the comb bit-identical to the naive double-and-add
// ladder (scalarBaseMult in reference_test.go). It is the package's only
// fixed-base table: key derivation uses it as well.

const (
	combWindow = 4                // bits per window
	combBlocks = 256 / combWindow // 64 windows cover a 256-bit scalar
)

var (
	combOnce  sync.Once
	combTable [combBlocks][1<<combWindow - 1]affineVal
)

func initCombTable() {
	// Build every block's multiples in Jacobian coordinates, then flatten
	// into one batched affine normalization.
	const perBlock = 1<<combWindow - 1
	jac := make([]jacobianVal, 0, combBlocks*perBlock)
	base := generator.jacobian()
	for i := 0; i < combBlocks; i++ {
		// block[d-1] = d · base
		prev := base
		jac = append(jac, prev)
		for d := 2; d <= perBlock; d++ {
			prev.add(&base)
			jac = append(jac, prev)
		}
		// Next block base: 2^combWindow · base.
		for b := 0; b < combWindow; b++ {
			base.double()
		}
	}
	flat := make([]affineVal, len(jac))
	batchAffine(flat, jac)
	for i := range combTable {
		copy(combTable[i][:], flat[i*perBlock:])
	}
}

// scalarBaseMultComb computes k·G (any integer k, taken mod n) via the
// fixed-base comb table.
func scalarBaseMultComb(k *big.Int) jacobianVal {
	combOnce.Do(initCombTable)
	if k.Sign() < 0 || k.BitLen() > 256 {
		k = new(big.Int).Mod(k, curveN)
	}
	var kb [32]byte
	k.FillBytes(kb[:])
	var acc jacobianVal
	for i := 0; i < combBlocks; i++ {
		b := kb[31-i/2]
		nib := b & 0x0f
		if i%2 == 1 {
			nib = b >> 4
		}
		if nib != 0 {
			acc.addMixed(&combTable[i][nib-1], false)
		}
	}
	return acc
}
