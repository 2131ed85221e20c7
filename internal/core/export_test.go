package core

import "repro/internal/evm"

// PurgeTokenSigCache empties the token-signer cache, so a benchmark or
// test can measure the full-recovery path of a token it already verified.
func PurgeTokenSigCache() { tokenSigCache.Purge() }

// RecoverOnlyTokenPrehook is BatchTokenPrehook without the known-signer
// check: every sub-batch's uncached tokens are recovered with
// secp256k1.RecoverAddressBatch. It is the oracle the known-signer path is
// held to.
func RecoverOnlyTokenPrehook(chainID uint64) func([]*evm.Transaction) {
	return func(txs []*evm.Transaction) {
		b := uncachedTokens(txs, chainID)
		b.recoverAll()
	}
}
