package core

// PurgeTokenSigCache empties the token-signer cache, so a benchmark or
// test can measure the full-recovery path of a token it already verified.
func PurgeTokenSigCache() { tokenSigCache.Purge() }
