package secp256k1

import (
	"testing"

	"repro/internal/types"
)

// The benchmarks below make the crypto-layer numbers of
// docs/BENCHMARKS.md reproducible with plain `go test -bench`.

var benchSink types.Address

func benchSig(b *testing.B) (*PrivateKey, [32]byte, Signature) {
	b.Helper()
	key := PrivateKeyFromSeed([]byte("bench key"))
	var digest [32]byte
	copy(digest[:], []byte("benchmark digest 32 bytes long!!"))
	sig, err := Sign(key, digest)
	if err != nil {
		b.Fatal(err)
	}
	return key, digest, sig
}

func BenchmarkSign(b *testing.B) {
	key, digest, _ := benchSig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sign(key, digest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoverAddress(b *testing.B) {
	_, digest, sig := benchSig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, err := RecoverAddress(digest, sig)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = addr
	}
}

func BenchmarkVerify(b *testing.B) {
	key, digest, sig := benchSig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(key.Pub, digest, sig) {
			b.Fatal("valid signature rejected")
		}
	}
}
