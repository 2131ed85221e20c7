package core_test

import (
	"bytes"
	"errors"
	"math/big"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/secp256k1"
	"repro/internal/types"
)

func TestTokenSignerCached(t *testing.T) {
	key := secp256k1.PrivateKeyFromSeed([]byte("cache ts"))
	binding := core.Binding{Origin: types.Address{0xc1}, Contract: types.Address{0x01}}
	expire := time.Now().Add(time.Hour)
	tk, err := core.SignToken(key, core.SuperType, expire, core.NotOneTime, binding)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.VerifySignature(key.Address(), binding); err != nil {
		t.Fatal(err)
	}
	hits0, _ := core.TokenSigCacheStats()
	if err := tk.VerifySignature(key.Address(), binding); err != nil {
		t.Fatal(err)
	}
	hits1, _ := core.TokenSigCacheStats()
	if hits1 != hits0+1 {
		t.Errorf("second verification missed the cache (hits %d→%d)", hits0, hits1)
	}

	// A cache hit is an address recovery, not a verdict: checking the same
	// token against another Token Service address must still fail.
	other := secp256k1.PrivateKeyFromSeed([]byte("other ts"))
	if err := tk.VerifySignature(other.Address(), binding); !errors.Is(err, core.ErrBadTokenSig) {
		t.Errorf("cached signer accepted for wrong TS address: %v", err)
	}

	// A different binding changes the digest — no stale hit.
	wrong := core.Binding{Origin: types.Address{0xc2}, Contract: types.Address{0x01}}
	if err := tk.VerifySignature(key.Address(), wrong); !errors.Is(err, core.ErrBadTokenSig) {
		t.Errorf("binding swap err = %v, want ErrBadTokenSig", err)
	}
}

func TestTokenVerifyOutOfRangeScalarsError(t *testing.T) {
	// Scalars outside [1, n−1], and high s, must be rejected as
	// ErrBadTokenSig every time: a rejected signature never enters the
	// cache, so presenting it again is no hit.
	key := secp256k1.PrivateKeyFromSeed([]byte("bad scalar ts"))
	binding := core.Binding{Origin: types.Address{0xc1}, Contract: types.Address{0x01}}
	tk, err := core.SignToken(key, core.SuperType, time.Now().Add(time.Hour), core.NotOneTime, binding)
	if err != nil {
		t.Fatal(err)
	}
	curveN, _ := new(big.Int).SetString("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141", 16)
	for name, mutate := range map[string]func(*secp256k1.Signature){
		"r = 2²⁵⁶ − 1": func(s *secp256k1.Signature) { s.R = [32]byte(bytes.Repeat([]byte{0xff}, 32)) },
		"zero s":       func(s *secp256k1.Signature) { s.S = [32]byte{} },
		"high s": func(s *secp256k1.Signature) {
			new(big.Int).Sub(curveN, new(big.Int).SetBytes(s.S[:])).FillBytes(s.S[:])
		},
	} {
		bad := tk
		mutate(&bad.Signature)
		hits0, _ := core.TokenSigCacheStats()
		for i := 0; i < 2; i++ {
			if err := bad.VerifySignature(key.Address(), binding); !errors.Is(err, core.ErrBadTokenSig) {
				t.Errorf("%s: err = %v, want ErrBadTokenSig", name, err)
			}
		}
		if hits, _ := core.TokenSigCacheStats(); hits != hits0 {
			t.Errorf("%s: rejected signature hit the cache (hits %d→%d)", name, hits0, hits)
		}
	}
}
