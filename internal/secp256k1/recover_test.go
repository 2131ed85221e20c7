package secp256k1

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// assertRecoverFails checks that the single and the batch entry point both
// reject (digest, sig) with want, without disturbing a valid neighbour, and
// that a failed recovery is one the math/big reference cannot complete
// either.
func assertRecoverFails(t *testing.T, digest [32]byte, sig Signature, want error) {
	t.Helper()
	if _, err := Recover(digest, sig); !errors.Is(err, want) {
		t.Errorf("Recover: err = %v, want %v", err, want)
	}
	if errors.Is(want, ErrRecoveryFailed) {
		if _, ok := refRecover(digest, sig); ok {
			t.Error("reference ladder recovers a key where Recover must fail")
		}
	}
	key, goodDigest := PrivateKeyFromSeed([]byte("neighbour")), [32]byte{1}
	goodSig, err := Sign(key, goodDigest)
	if err != nil {
		t.Fatal(err)
	}
	addrs, errs := RecoverAddressBatch([][32]byte{goodDigest, digest}, []Signature{goodSig, sig})
	if errs[0] != nil || addrs[0] != key.Address() {
		t.Errorf("batch neighbour: addr %s err %v, want %s", addrs[0], errs[0], key.Address())
	}
	if !errors.Is(errs[1], want) {
		t.Errorf("RecoverAddressBatch: err = %v, want %v", errs[1], want)
	}
}

func TestRecoverRejectsNonResidueX(t *testing.T) {
	// r is the x of no curve point when r³ + 7 has no square root mod p;
	// math/big picks the first few such r independently of fieldVal.sqrt.
	var xs []*big.Int
	for r := int64(1); len(xs) < 4; r++ {
		x := big.NewInt(r)
		y2 := new(big.Int).Exp(x, big.NewInt(3), curveP)
		y2.Add(y2, big.NewInt(7))
		if big.Jacobi(y2, curveP) == -1 {
			xs = append(xs, x)
		}
	}
	for _, x := range xs {
		for v := byte(0); v < 2; v++ {
			sig := sigOf(x, big.NewInt(1), v)
			assertRecoverFails(t, [32]byte{9}, sig, ErrRecoveryFailed)
		}
	}
}

func TestRecoverRejectsInfinity(t *testing.T) {
	// With R = k·G and z = s·k the recovered point r⁻¹(s·R − z·G) is the
	// point at infinity, which is no public key.
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 4; i++ {
		k := randScalar(rng)
		s := new(big.Int).Rsh(randScalar(rng), 1) // low-s
		if k.Sign() == 0 || s.Sign() == 0 {
			continue
		}
		rp := toAffine(scalarBaseMult(k))
		z := new(big.Int).Mul(s, k)
		var digest [32]byte
		z.Mod(z, curveN).FillBytes(digest[:])
		sig := sigOf(new(big.Int).Mod(rp.x, curveN), s, byte(rp.y.Bit(0)))
		if _, ok := recoverEphemeralPoint(sig); !ok {
			t.Fatal("R itself must reconstruct: the failure under test is the infinity")
		}
		assertRecoverFails(t, digest, sig, ErrRecoveryFailed)
	}
}

// TestOutOfRangeScalarsAreInvalid feeds every entry point scalars
// outside [1, n−1] or in high-s form: each must reject them as
// ErrInvalidSignature, and the batch must still accept a valid neighbour.
func TestOutOfRangeScalarsAreInvalid(t *testing.T) {
	key := PrivateKeyFromSeed([]byte("out-of-range scalars"))
	digest := [32]byte{7}
	good, err := Sign(key, digest)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sig  Signature
	}{
		{"zero value", Signature{}},
		{"zero r", Signature{S: good.S, V: good.V}},
		{"zero s", Signature{R: good.R, V: good.V}},
		{"r = n", Signature{R: scalarBytes(curveN), S: good.S, V: good.V}},
		{"s = n", Signature{R: good.R, S: scalarBytes(curveN), V: good.V}},
		{"s = 2²⁵⁶ − 1", Signature{R: good.R, S: [32]byte(bytes.Repeat([]byte{0xff}, 32)), V: good.V}},
		{"high s", Signature{R: good.R, S: scalarBytes(new(big.Int).Sub(curveN, bigOf(good.S))), V: good.V}},
	}
	for _, tc := range cases {
		if err := tc.sig.Validate(); !errors.Is(err, ErrInvalidSignature) {
			t.Errorf("%s: Validate = %v, want ErrInvalidSignature", tc.name, err)
		}
		if Verify(key.Pub, digest, tc.sig) {
			t.Errorf("%s: Verify accepted", tc.name)
		}
		assertRecoverFails(t, digest, tc.sig, ErrInvalidSignature)
		ks, err := NewKnownSigner(key.Pub)
		if err != nil {
			t.Fatal(err)
		}
		digests := [][32]byte{digest, digest}
		if ks.RecoverBatchMatches(digests, []Signature{good, tc.sig}) {
			t.Errorf("%s: RecoverBatchMatches accepted", tc.name)
		}
		if !ks.RecoverBatchMatches(digests[:1], []Signature{good}) {
			t.Errorf("%s: RecoverBatchMatches rejected the valid neighbour", tc.name)
		}
	}
}

// TestLazyTablesFirstUseIsConcurrent resets the lazily built tables and
// lets many goroutines race to be their first user through every entry
// point that reads them. Run with -race -count=10.
func TestLazyTablesFirstUseIsConcurrent(t *testing.T) {
	key, ks, digests, sigs := knownSignerFixture(t, 4)
	combOnce, fastBaseOnce = sync.Once{}, sync.Once{}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			i := g % len(digests)
			switch g % 4 {
			case 0:
				sig, err := Sign(key, digests[0])
				if err != nil || sig.R != sigs[0].R || sig.S != sigs[0].S {
					t.Errorf("goroutine %d: Sign diverged (err %v)", g, err)
				}
			case 1:
				if !Verify(key.Pub, digests[i], sigs[i]) {
					t.Errorf("goroutine %d: Verify rejected", g)
				}
			case 2:
				if addr, err := RecoverAddress(digests[i], sigs[i]); err != nil || addr != key.Address() {
					t.Errorf("goroutine %d: RecoverAddress = %s, %v", g, addr, err)
				}
			default:
				if !ks.RecoverBatchMatches(digests, sigs) {
					t.Errorf("goroutine %d: RecoverBatchMatches rejected", g)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
