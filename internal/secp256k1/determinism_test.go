package secp256k1

import (
	"testing"

	"repro/internal/keccak"
)

func TestSignDeterministic(t *testing.T) {
	// RFC 6979: signing is a pure function of (key, digest) — no RNG, so
	// identical inputs yield identical signatures (the property that makes
	// Token Service issuance reproducible).
	key := PrivateKeyFromSeed([]byte("determinism"))
	digest := keccak.Sum256([]byte("message"))
	a, err := Sign(key, digest)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sign(key, digest)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("two signatures over identical input differ")
	}
}

func TestSignaturesDifferAcrossKeysAndMessages(t *testing.T) {
	k1 := PrivateKeyFromSeed([]byte("key one"))
	k2 := PrivateKeyFromSeed([]byte("key two"))
	d1 := keccak.Sum256([]byte("m1"))
	d2 := keccak.Sum256([]byte("m2"))

	s11, _ := Sign(k1, d1)
	s12, _ := Sign(k1, d2)
	s21, _ := Sign(k2, d1)

	if s11.R == s12.R {
		t.Error("same nonce reused across messages (catastrophic)")
	}
	if s11.R == s21.R {
		t.Error("same nonce across keys")
	}
}

func TestAddressesDistinctAcrossSeeds(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		key := PrivateKeyFromSeed([]byte{byte(i), 0x5e})
		a := key.Address().Hex()
		if seen[a] {
			t.Fatalf("address collision at seed %d", i)
		}
		seen[a] = true
	}
}
