package evm

import (
	"repro/internal/sigcache"
	"repro/internal/types"
)

// senderCache memoizes recovered transaction senders across transactions,
// keyed by signing digest ‖ signature. Distinct transactions never share a
// digest (the nonce is signed), but the same signed transaction is recovered
// repeatedly — wallet-side preview, batch prevalidation, commit — and
// mempool-style re-submissions replay exact bytes.
var senderCache = sigcache.New[types.Address](4096)

// SenderCacheStats returns the cumulative hit/miss counts of the shared
// sender cache.
func SenderCacheStats() (hits, misses uint64) { return senderCache.Stats() }
