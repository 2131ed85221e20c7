package core

import (
	"sync/atomic"

	"repro/internal/evm"
	"repro/internal/secp256k1"
	"repro/internal/sigcache"
	"repro/internal/types"
)

// BatchTokenPrehook returns an evm.ExecOptions.PrevalidateBatch hook
// that verifies token signatures during Execute's parallel prevalidation
// phase, outside the chain mutex, and installs the signers it establishes
// in the token-signer cache, so the authoritative Verifier.Verify run at
// execution time skips its ecrecover.
//
// Alg. 1 accepts a token only when ecrecover returns tsAddr, so the hook
// checks the answer instead of computing it. The first token it recovers
// to tsAddr teaches it the Token Service key Q (instance state, shared by
// the hook's concurrent calls). From then on a sub-batch's uncached
// tokens go through one secp256k1.KnownSigner.RecoverBatchMatches
// equation, and if it holds every token is cached as signed by tsAddr. A
// wrong token passes that equation with probability at most 2⁻¹²⁸ per
// sub-batch, over random coefficients the submitter never sees. Until Q
// is known, when the equation fails, or when a signature claims an
// overflowed r (v ≥ 2), the sub-batch takes secp256k1.RecoverAddressBatch
// instead, which amortizes the modular inversions of per-item recovery and
// caches each recovered signer, so error shapes stay those of
// RecoverAddress. A sub-batch holding one bad token, or one signed by any
// key but Q, therefore costs one failed check plus that recovery, about
// 1.3× a recovery-only hook.
//
// The hook only warms the top-level entry (the token tagged with the
// transaction's target contract); downstream call-chain entries are
// verified — and cached — when the chain executes them. It is best-effort
// and side-effect-only: malformed or missing tokens are skipped and left
// for the on-chain verification to reject, and gas accounting is untouched
// because the Verifier charges the full ecrecover cost whether or not the
// cache hits. Safe for concurrent use on disjoint sub-batches.
func BatchTokenPrehook(tsAddr types.Address, chainID uint64) func([]*evm.Transaction) {
	var signer atomic.Pointer[secp256k1.KnownSigner]
	return func(txs []*evm.Transaction) {
		b := uncachedTokens(txs, chainID)
		if len(b.keys) == 0 {
			return
		}
		if ks := signer.Load(); ks != nil && !b.overflow && ks.RecoverBatchMatches(b.digests, b.sigs) {
			for _, key := range b.keys {
				tokenSigCache.Add(key, tsAddr)
			}
			return
		}
		addrs, errs := b.recoverAll()
		for i := range addrs {
			if signer.Load() == nil && errs[i] == nil && addrs[i] == tsAddr {
				// The item just recovered, so neither call fails; a nil
				// signer would leave the pointer unset all the same.
				pub, _ := secp256k1.Recover(b.digests[i], b.sigs[i])
				ks, _ := secp256k1.NewKnownSigner(pub)
				signer.CompareAndSwap(nil, ks)
			}
		}
	}
}

// tokenBatch is a sub-batch's uncached top-level token signatures and
// their token-signer cache keys.
type tokenBatch struct {
	digests  [][32]byte
	sigs     []secp256k1.Signature
	keys     []string
	overflow bool // some signature claims an overflowed r (v ≥ 2), which ParseSignature rejects
}

// uncachedTokens gathers the top-level tokens of txs whose signer the
// cache does not hold, skipping every transaction the on-chain
// verification will reject for another reason.
func uncachedTokens(txs []*evm.Transaction, chainID uint64) tokenBatch {
	var b tokenBatch
	for _, tx := range txs {
		if len(tx.Tokens) == 0 {
			continue
		}
		tk, err := TokenFor(tx.Tokens, tx.To)
		if err != nil {
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
		b.digests = append(b.digests, [32]byte(digest))
		b.sigs = append(b.sigs, tk.Signature)
		b.keys = append(b.keys, key)
		b.overflow = b.overflow || tk.Signature.V >= 2
	}
	return b
}

// recoverAll recovers every signer with secp256k1.RecoverAddressBatch and
// caches each one recovered.
func (b *tokenBatch) recoverAll() ([]types.Address, []error) {
	addrs, errs := secp256k1.RecoverAddressBatch(b.digests, b.sigs)
	for i, key := range b.keys {
		if errs[i] == nil {
			tokenSigCache.Add(key, addrs[i])
		}
	}
	return addrs, errs
}
