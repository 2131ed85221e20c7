package evm

// PurgeSenderCache empties the shared sender cache, so a benchmark that
// re-signs byte-identical transactions on every run still starts cold.
func PurgeSenderCache() { senderCache.Purge() }
