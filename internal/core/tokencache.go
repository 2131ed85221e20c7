package core

import (
	"repro/internal/sigcache"
	"repro/internal/types"
)

// tokenSigCache memoizes recovered token signers keyed by signing digest ‖
// signature. Token signatures are the second ecrecover of every guarded
// transaction, and — unlike transaction signatures — the same token digest
// recurs across transactions: a reusable (non-one-time) token is presented
// with every call of a multi-call flow, and call-chain transactions verify
// the same array entries at every hop. The cache stores the recovered
// address, not a verdict, so a hit is still compared against the expected
// Token Service address.
var tokenSigCache = sigcache.New[sigcache.SigKey, types.Address](4096)

// TokenSigCacheStats returns the cumulative hit/miss counts of the token
// signer cache.
func TokenSigCacheStats() (hits, misses uint64) { return tokenSigCache.Stats() }
