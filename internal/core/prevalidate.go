package core

import (
	"repro/internal/evm"
	"repro/internal/secp256k1"
	"repro/internal/sigcache"
	"repro/internal/types"
)

// BatchTokenPrehook returns an evm.ExecOptions.PrevalidateBatch hook
// that verifies token signatures during Execute's parallel prevalidation
// phase, outside the chain mutex: it gathers the top-level token
// signatures of a whole sub-batch and recovers their signers through
// secp256k1.RecoverAddressBatch, amortizing the modular inversions of
// per-item recovery, before installing them in the token-signer cache, so
// the authoritative Verifier.Verify run at execution time skips its
// ecrecover.
//
// The hook only warms the top-level entry (the token tagged with the
// transaction's target contract); downstream call-chain entries are
// verified — and cached — when the chain executes them. It is best-effort
// and side-effect-only: malformed or missing tokens are skipped and left
// for the on-chain verification to reject, and gas accounting is untouched
// because the Verifier charges the full ecrecover cost whether or not the
// cache hits. Safe for concurrent use on disjoint sub-batches.
func BatchTokenPrehook(tsAddr types.Address, chainID uint64) func([]*evm.Transaction) {
	return func(txs []*evm.Transaction) {
		var (
			digests [][32]byte
			sigs    []secp256k1.Signature
			keys    []string
		)
		for _, tx := range txs {
			if len(tx.Tokens) == 0 {
				continue
			}
			tk, err := TokenFor(tx.Tokens, tx.To)
			if err != nil {
				continue
			}
			if tk.Signature.Validate() != nil {
				continue
			}
			origin, err := tx.Sender(chainID)
			if err != nil {
				continue
			}
			appData, err := tx.AppData()
			if err != nil || len(appData) < 4 {
				continue
			}
			binding := Binding{Origin: origin, Contract: tx.To, Data: appData}
			copy(binding.Selector[:], appData[:4])
			digest := Digest(tk.Type, tk.Expire, tk.Index, binding)
			key := sigcache.Key([32]byte(digest), tk.Signature.Bytes())
			if _, ok := tokenSigCache.Get(key); ok {
				continue
			}
			digests = append(digests, [32]byte(digest))
			sigs = append(sigs, tk.Signature)
			keys = append(keys, key)
		}
		if len(digests) == 0 {
			return
		}
		addrs, errs := secp256k1.RecoverAddressBatch(digests, sigs)
		for i, key := range keys {
			if errs[i] != nil {
				continue
			}
			tokenSigCache.Add(key, addrs[i])
		}
	}
}
