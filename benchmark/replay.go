package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/ts"
)

// The replay pass takes the costs no decorator can reach: after the
// measured interval the driver calls a layer's exported function directly,
// single-threaded, on inputs captured from the workload, and reports the
// mean per call on its own clock.

// meanUs runs f(i) for i in [0,n) and returns the mean duration in us.
func meanUs(n int, f func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / 1e3 / float64(n), nil
}

// replayKey signs the replay pass's tokens. No stack ever uses it, so the
// token-signer cache has never seen what it signs.
var replayKey = secp256k1.PrivateKeyFromSeed([]byte("smacs benchmark replay"))

// replayService reports the Token Service's issuance path on signed,
// rule-compliant requests: the whole of Service.Issue, then its parts.
func replayService(reqs []*core.Request, key *secp256k1.PrivateKey, rs *rules.RuleSet, put func(string, float64)) error {
	svc, err := ts.New(ts.Config{Key: key, Rules: rs, Lifetime: tokenLifetime, RequireProof: true, Metrics: metrics.NewRegistry()})
	if err != nil {
		return err
	}
	steps := []struct {
		name string
		f    func(i int) error
	}{
		{"ts.issue_us", func(i int) error { _, err := svc.Issue(reqs[i]); return err }},
		{"rules.check_us", func(i int) error { return rs.Check(reqs[i]) }},
		{"core.verify_proof_us", func(i int) error { return reqs[i].VerifyProof() }},
	}
	for _, st := range steps {
		us, err := meanUs(len(reqs), st.f)
		if err != nil {
			return fmt.Errorf("replay %s: %w", st.name, err)
		}
		put(st.name, us)
	}
	var digests [][32]byte
	var sigs []secp256k1.Signature
	for _, req := range reqs {
		sig, err := secp256k1.ParseSignature(req.Proof)
		if err != nil {
			return err
		}
		digests, sigs = append(digests, [32]byte(req.ProofDigest())), append(sigs, sig)
	}
	return replayCrypto(digests, sigs, put)
}

// replayTokens signs one never-seen token per request and then verifies
// each once: a signing cost and a cold (cache-miss) verification cost.
func replayTokens(reqs []*core.Request, withSign bool, put func(string, float64)) error {
	expire := time.Now().Add(tokenLifetime)
	bindings := make([]core.Binding, len(reqs))
	tokens := make([]core.Token, len(reqs))
	for i, req := range reqs {
		b, err := req.Binding()
		if err != nil {
			return err
		}
		bindings[i] = b
	}
	us, err := meanUs(len(reqs), func(i int) (err error) {
		// A distinct index per token makes every digest distinct.
		tokens[i], err = core.SignToken(replayKey, reqs[i].Type, expire, int64(i)+1, bindings[i])
		return err
	})
	if err != nil {
		return err
	}
	if withSign {
		put("core.sign_token_us", us)
	}
	us, err = meanUs(len(reqs), func(i int) error { return tokens[i].VerifySignature(replayKey.Address(), bindings[i]) })
	if err != nil {
		return err
	}
	put("core.token_verify_us", us)
	return nil
}

// replayCrypto reports the raw secp256k1 costs on the workload's own
// digests and signatures.
func replayCrypto(digests [][32]byte, sigs []secp256k1.Signature, put func(string, float64)) error {
	n := len(digests)
	us, err := meanUs(n, func(i int) error { _, err := secp256k1.Sign(replayKey, digests[i]); return err })
	if err != nil {
		return err
	}
	put("secp256k1.sign_us", us)
	us, err = meanUs(n, func(i int) error { _, err := secp256k1.RecoverAddress(digests[i], sigs[i]); return err })
	if err != nil {
		return err
	}
	put("secp256k1.recover_us", us)
	start := time.Now()
	for off := 0; off < n; off += blockTxs {
		end := min(off+blockTxs, n)
		_, errs := secp256k1.RecoverAddressBatch(digests[off:end], sigs[off:end])
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	put("secp256k1.recover_batch_item_us", float64(time.Since(start))/1e3/float64(n))
	return nil
}

// replayCodec reports the wire and WAL codec cost of one tx.
func replayCodec(txs []*evm.Transaction, put func(string, float64)) error {
	now := time.Now()
	us, err := meanUs(len(txs), func(i int) error {
		if _, err := txs[i].WireData(); err != nil {
			return err
		}
		enc, err := evm.EncodeCommit(txs[i], now)
		if err != nil {
			return err
		}
		_, _, err = evm.DecodeCommit(enc)
		return err
	})
	if err != nil {
		return err
	}
	put("evm.codec_us_per_tx", us)
	return nil
}

// txCrypto collects the signing digests and signatures of txs.
func txCrypto(txs []*evm.Transaction, chainID uint64) ([][32]byte, []secp256k1.Signature, error) {
	digests := make([][32]byte, len(txs))
	sigs := make([]secp256k1.Signature, len(txs))
	for i, tx := range txs {
		d, err := tx.SigHash(chainID)
		if err != nil {
			return nil, nil, err
		}
		digests[i], sigs[i] = [32]byte(d), tx.Sig
	}
	return digests, sigs, nil
}
