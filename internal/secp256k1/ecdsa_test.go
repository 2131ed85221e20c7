package secp256k1

import (
	"crypto/sha256"
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/keccak"
)

func TestGeneratorPublicKey(t *testing.T) {
	key, err := NewPrivateKey(big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if key.Pub.X.Cmp(curveGx) != 0 || key.Pub.Y.Cmp(curveGy) != 0 {
		t.Errorf("1·G != G: got (%x, %x)", key.Pub.X, key.Pub.Y)
	}
}

func TestKnownEthereumAddresses(t *testing.T) {
	// Widely known address derivations for tiny private keys.
	tests := []struct {
		d    int64
		want string
	}{
		{1, "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf"},
		{2, "0x2b5ad5c4795c026514f8317c7a215e218dccd6cf"},
		{3, "0x6813eb9362372eef6200f3b1dbc3f819671cba69"},
	}
	for _, tt := range tests {
		key, err := NewPrivateKey(big.NewInt(tt.d))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.ToLower(key.Address().Hex()); got != tt.want {
			t.Errorf("address(%d) = %s, want %s", tt.d, got, tt.want)
		}
	}
}

func TestRFC6979KnownVector(t *testing.T) {
	// Standard secp256k1 RFC 6979 vector (used by many libraries):
	// key = 1, message = "Satoshi Nakamoto" (SHA-256 digest).
	key, err := NewPrivateKey(big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	digest := sha256.Sum256([]byte("Satoshi Nakamoto"))
	sig, err := Sign(key, digest)
	if err != nil {
		t.Fatal(err)
	}
	wantR := mustBig("934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8")
	wantS := mustBig("2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5")
	if sig.R.Cmp(wantR) != 0 {
		t.Errorf("r = %x, want %x", sig.R, wantR)
	}
	if sig.S.Cmp(wantS) != 0 {
		t.Errorf("s = %x, want %x", sig.S, wantS)
	}
}

func TestSignVerifyRecoverRoundTrip(t *testing.T) {
	key := PrivateKeyFromSeed([]byte("roundtrip"))
	digest := keccak.Sum256([]byte("a message"))
	sig, err := Sign(key, digest)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(key.Pub, digest, sig) {
		t.Fatal("valid signature rejected")
	}
	addr, err := RecoverAddress(digest, sig)
	if err != nil {
		t.Fatal(err)
	}
	if addr != key.Address() {
		t.Errorf("recovered %s, want %s", addr, key.Address())
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	key := PrivateKeyFromSeed([]byte("tamper"))
	digest := keccak.Sum256([]byte("original"))
	sig, err := Sign(key, digest)
	if err != nil {
		t.Fatal(err)
	}

	other := keccak.Sum256([]byte("modified"))
	if Verify(key.Pub, other, sig) {
		t.Error("signature verified against a different digest")
	}

	wrongKey := PrivateKeyFromSeed([]byte("someone else"))
	if Verify(wrongKey.Pub, digest, sig) {
		t.Error("signature verified under a different public key")
	}

	bad := sig
	bad.R = new(big.Int).Add(sig.R, big.NewInt(1))
	if Verify(key.Pub, digest, bad) {
		t.Error("modified r accepted")
	}
}

func TestLowSNormalization(t *testing.T) {
	key := PrivateKeyFromSeed([]byte("low-s"))
	for i := 0; i < 16; i++ {
		digest := keccak.Sum256([]byte{byte(i)})
		sig, err := Sign(key, digest)
		if err != nil {
			t.Fatal(err)
		}
		if sig.S.Cmp(halfN) > 0 {
			t.Fatalf("signature %d not low-s normalized", i)
		}
	}
}

func TestParseSignatureVariants(t *testing.T) {
	key := PrivateKeyFromSeed([]byte("parse"))
	digest := keccak.Sum256([]byte("msg"))
	sig, err := Sign(key, digest)
	if err != nil {
		t.Fatal(err)
	}

	raw := sig.Bytes()
	back, err := ParseSignature(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.R.Cmp(sig.R) != 0 || back.S.Cmp(sig.S) != 0 || back.V != sig.V {
		t.Error("round trip changed the signature")
	}

	// Legacy Ethereum encodes v as 27/28.
	legacy := sig.Bytes()
	legacy[64] += 27
	back, err = ParseSignature(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if back.V != sig.V {
		t.Errorf("legacy v normalized to %d, want %d", back.V, sig.V)
	}

	if _, err := ParseSignature(raw[:64]); err == nil {
		t.Error("short signature accepted")
	}
	bad := sig.Bytes()
	bad[64] = 5
	if _, err := ParseSignature(bad); err == nil {
		t.Error("invalid recovery id accepted")
	}

	// High-s form must be rejected (Ethereum homestead rule).
	highS := Signature{R: sig.R, S: new(big.Int).Sub(curveN, sig.S), V: sig.V}
	if _, err := ParseSignature(highS.Bytes()); err == nil {
		t.Error("high-s signature accepted")
	}
}

func TestQuickSignRecover(t *testing.T) {
	key := PrivateKeyFromSeed([]byte("quick"))
	f := func(msg []byte) bool {
		digest := keccak.Sum256(msg)
		sig, err := Sign(key, digest)
		if err != nil {
			return false
		}
		addr, err := RecoverAddress(digest, sig)
		return err == nil && addr == key.Address() && Verify(key.Pub, digest, sig)
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestInvalidKeys(t *testing.T) {
	if _, err := NewPrivateKey(big.NewInt(0)); err == nil {
		t.Error("zero scalar accepted")
	}
	if _, err := NewPrivateKey(new(big.Int).Set(curveN)); err == nil {
		t.Error("scalar == n accepted")
	}
	if _, err := NewPrivateKey(nil); err == nil {
		t.Error("nil scalar accepted")
	}
	bad := PublicKey{X: big.NewInt(1), Y: big.NewInt(1)}
	if bad.Valid() {
		t.Error("off-curve point reported valid")
	}
}

func TestParsePublicKey(t *testing.T) {
	key := PrivateKeyFromSeed([]byte("pub parse"))
	enc := key.Pub.Bytes()
	back, err := ParsePublicKey(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.X.Cmp(key.Pub.X) != 0 || back.Y.Cmp(key.Pub.Y) != 0 {
		t.Error("public key round trip mismatch")
	}
	if _, err := ParsePublicKey(enc[:63]); err == nil {
		t.Error("short public key accepted")
	}
	enc[0] ^= 0xff
	if _, err := ParsePublicKey(enc); err == nil {
		t.Error("off-curve public key accepted")
	}
}
