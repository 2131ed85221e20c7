package secp256k1

import "sync"

// Fixed-base scalar multiplication k·G for the signing hot path.
//
// Signing computes one k·G per signature (the ephemeral point R). The
// generator never changes, so the multiplication is evaluated against a
// precomputed comb table: 32 blocks of 8-bit windows,
//
//	table[i][d-1] = d · 2^(8i) · G     for d in 1..255,
//
// turning k·G into at most 32 mixed additions with zero doublings — the
// scalar is consumed one byte at a time, no window straddles a limb, and
// every window's contribution is a single table lookup. The 8,160-point
// table (522 KB) is built once, lazily, in about 10 ms on a 2-vCPU host,
// and normalized to affine with one batched inversion per block.
//
// Differential tests pin the comb bit-identical to the naive double-and-add
// ladder (scalarBaseMult in reference_test.go). It is the package's only
// fixed-base table: key derivation uses it as well.

const (
	combWindow = 8                // bits per window; a limb holds eight whole ones
	combBlocks = 256 / combWindow // 32 windows cover a 256-bit scalar
)

var (
	combOnce  sync.Once
	combTable [combBlocks][1<<combWindow - 1]affineVal
)

func initCombTable() {
	// Build each block's multiples in Jacobian coordinates and normalize
	// them to affine with one batched inversion per block.
	var jac [len(combTable[0])]jacobianVal
	base := generator.jacobian()
	for i := range combTable {
		// block[d-1] = d · base
		jac[0] = base
		for d := 1; d < len(jac); d++ {
			jac[d] = jac[d-1]
			jac[d].add(&base)
		}
		batchAffine(combTable[i][:], jac[:])
		// Next block base: 2^combWindow · base.
		for b := 0; b < combWindow; b++ {
			base.double()
		}
	}
}

// scalarBaseMultComb computes k·G via the fixed-base comb table.
func scalarBaseMultComb(k *scalarVal) jacobianVal {
	combOnce.Do(initCombTable)
	var acc jacobianVal
	for i := 0; i < combBlocks; i++ {
		if d := (k[i*combWindow/64] >> (i * combWindow % 64)) & (1<<combWindow - 1); d != 0 {
			acc.addMixed(&combTable[i][d-1], false)
		}
	}
	return acc
}
