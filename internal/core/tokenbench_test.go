package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/secp256k1"
	"repro/internal/types"
)

// BenchmarkTokenVerify measures the contract-side token signature check —
// the second ecrecover of every guarded transaction — on the signer-cache
// hit path (replayed token) and cold (the cache purged, outside the timer,
// before every call: full recovery every time).
func BenchmarkTokenVerify(b *testing.B) {
	key := secp256k1.PrivateKeyFromSeed([]byte("bench token ts"))
	binding := core.Binding{Origin: types.Address{0xc1}, Contract: types.Address{0x01}}
	tk, err := core.SignToken(key, core.SuperType, time.Now().Add(time.Hour), core.NotOneTime, binding)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		cached bool
	}{{"cached", true}, {"uncached", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !mode.cached {
					b.StopTimer()
					core.PurgeTokenSigCache()
					b.StartTimer()
				}
				if err := tk.VerifySignature(key.Address(), binding); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
