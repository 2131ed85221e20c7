package core_test

import (
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
	// Out-of-range scalars must be rejected as ErrBadTokenSig, not panic
	// inside Signature.Bytes while building the cache key.
	key := secp256k1.PrivateKeyFromSeed([]byte("bad scalar ts"))
	binding := core.Binding{Origin: types.Address{0xc1}, Contract: types.Address{0x01}}
	tk, err := core.SignToken(key, core.SuperType, time.Now().Add(time.Hour), core.NotOneTime, binding)
	if err != nil {
		t.Fatal(err)
	}
	tk.Signature.R = new(big.Int).Lsh(big.NewInt(1), 300)
	if err := tk.VerifySignature(key.Address(), binding); !errors.Is(err, core.ErrBadTokenSig) {
		t.Errorf("err = %v, want ErrBadTokenSig", err)
	}
}
