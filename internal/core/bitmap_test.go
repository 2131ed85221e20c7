package core_test

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/evmtest"
	"repro/internal/types"
	"repro/internal/wallet"
)

// newBitmapHarness wraps a Bitmap in a contract so the algorithm runs under
// real gas-charged storage.
func newBitmapHarness(t *testing.T, bits int) *evm.Contract {
	t.Helper()
	bm, err := core.NewBitmap(bits, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := evm.NewContract("BitmapHarness")
	c.SetInitialStorageWords(bm.StorageWords())
	c.MustAddMethod(evm.Method{
		Name:       "use",
		Params:     []any{uint64(0)},
		Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			idx, _ := call.Arg(0).(uint64)
			if err := bm.Use(call, int64(idx)); err != nil {
				return nil, err
			}
			return nil, nil
		},
	})
	c.MustAddMethod(evm.Method{
		Name:       "window",
		Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			start, err := call.LoadUint("app", evm.SlotN(0))
			if err != nil {
				return nil, err
			}
			ptr, err := call.LoadUint("app", evm.SlotN(1))
			if err != nil {
				return nil, err
			}
			return []any{start, ptr}, nil
		},
	})
	return c
}

func TestBitmapPaperWalkthrough(t *testing.T) {
	// Reproduces the worked example of § IV-C with n = 8.
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newBitmapHarness(t, 8))

	use := func(idx uint64) error {
		r, err := env.Wallets[1].Call(addr, "use", wallet.CallOpts{}, idx)
		if err != nil {
			t.Fatalf("use(%d): %v", idx, err)
		}
		if !r.Status {
			return r.Err
		}
		return nil
	}
	window := func() (start, ptr uint64) {
		r := env.MustCall(t, 1, addr, "window", wallet.CallOpts{})
		return r.Return[0].(uint64), r.Return[1].(uint64)
	}

	// Tokens 0, 1, 4, 5 access the contract.
	for _, idx := range []uint64{0, 1, 4, 5} {
		if err := use(idx); err != nil {
			t.Fatalf("use(%d) rejected: %v", idx, err)
		}
	}
	if start, ptr := window(); start != 0 || ptr != 0 {
		t.Fatalf("window = (%d, %d), want (0, 0)", start, ptr)
	}

	// Token 9 advances the window: seek returns 2 (paper's example).
	if err := use(9); err != nil {
		t.Fatalf("use(9) rejected: %v", err)
	}
	if start, ptr := window(); start != 2 || ptr != 2 {
		t.Fatalf("after 9: window = (%d, %d), want (2, 2)", start, ptr)
	}

	// Token 13 advances again: start becomes 6, and the unused tokens 2
	// and 3 are lost ("token miss").
	if err := use(13); err != nil {
		t.Fatalf("use(13) rejected: %v", err)
	}
	if start, ptr := window(); start != 6 || ptr != 6 {
		t.Fatalf("after 13: window = (%d, %d), want (6, 6)", start, ptr)
	}
	for _, missed := range []uint64{2, 3} {
		if err := use(missed); !errors.Is(err, core.ErrTokenUsed) {
			t.Errorf("use(%d) = %v, want miss (ErrTokenUsed)", missed, err)
		}
	}
}

func TestBitmapRejectsDoubleUse(t *testing.T) {
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newBitmapHarness(t, 8))

	r := env.MustCall(t, 1, addr, "use", wallet.CallOpts{}, uint64(3))
	_ = r
	rr, err := env.Wallets[1].Call(addr, "use", wallet.CallOpts{}, uint64(3))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Status || !errors.Is(rr.Err, core.ErrTokenUsed) {
		t.Errorf("double use: status=%v err=%v", rr.Status, rr.Err)
	}
}

func TestBitmapResetBranch(t *testing.T) {
	// An index far beyond end+n triggers the reset branch, which must also
	// mark the new index used (fix (a) in the Bitmap doc comment).
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newBitmapHarness(t, 8))

	env.MustCall(t, 1, addr, "use", wallet.CallOpts{}, uint64(0))
	env.MustCall(t, 1, addr, "use", wallet.CallOpts{}, uint64(100))

	r := env.MustCall(t, 1, addr, "window", wallet.CallOpts{})
	if start := r.Return[0].(uint64); start != 100 {
		t.Errorf("window start = %d, want 100", start)
	}
	rr, err := env.Wallets[1].Call(addr, "use", wallet.CallOpts{}, uint64(100))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Status {
		t.Error("reset branch allowed reuse of the resetting index")
	}
}

func TestBitmapAtMostOnceProperty(t *testing.T) {
	// THE one-time-token security invariant: no index is ever accepted
	// twice, regardless of the access pattern.
	f := func(seq []uint16) bool {
		env := evmtest.NewEnv(t, 2)
		addr := env.Deploy(t, newBitmapHarness(t, 16))
		accepted := make(map[uint64]bool)
		for _, raw := range seq {
			idx := uint64(raw % 64)
			r, err := env.Wallets[1].Call(addr, "use", wallet.CallOpts{}, idx)
			if err != nil {
				return false
			}
			if r.Status {
				if accepted[idx] {
					t.Logf("index %d accepted twice (sequence %v)", idx, seq)
					return false
				}
				accepted[idx] = true
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// FuzzBitmapVsNaive holds the windowed bitmap to § IV-C's strawman. The
// first byte sizes the bitmap (1–32 bits); every later byte is one index
// presented to both trackers. The bitmap never accepts an index the
// never-forgetting NaiveTracker rejects, and every index only the bitmap
// rejects lay below its window: the miss the miss-rate experiment counts,
// never a fresh in-window token refused.
func FuzzBitmapVsNaive(f *testing.F) {
	f.Add([]byte{8, 0, 1, 4, 5, 3, 9, 2, 1, 30, 12}) // § IV-C's n = 8, then advance, miss, reset
	f.Add([]byte{1, 5, 5, 4, 6, 8, 7})
	f.Add([]byte{16, 40, 3, 200, 199, 40, 170, 185})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 65 {
			return // each index costs two signed transactions
		}
		bits := 1 + int(data[0]%32)
		env := evmtest.NewEnv(t, 2)
		bitmap := env.Deploy(t, newBitmapHarness(t, bits))
		naive := env.Deploy(t, newNaiveHarness())
		use := func(addr types.Address, idx uint64) bool {
			r, err := env.Wallets[1].Call(addr, "use", wallet.CallOpts{}, idx)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Status && !errors.Is(r.Err, core.ErrTokenUsed) {
				t.Fatalf("use(%d) failed with %v", idx, r.Err)
			}
			return r.Status
		}
		for _, raw := range data[1:] {
			idx := uint64(raw)
			byBitmap, byNaive := use(bitmap, idx), use(naive, idx)
			switch {
			case byBitmap && !byNaive:
				t.Fatalf("n=%d: bitmap accepted index %d the naive tracker rejected (sequence %v)", bits, idx, data[1:])
			case byNaive && !byBitmap:
				// A rejected use reverts, so the window is as it was.
				ret, _, err := env.Chain.StaticCall(env.Wallets[1].Address(), bitmap, "window", nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if start := ret[0].(uint64); idx >= start {
					t.Fatalf("n=%d: bitmap rejected fresh index %d inside its window (start %d, sequence %v)", bits, idx, start, data[1:])
				}
			}
		}
	})
}

func TestBitmapMonotoneSequenceAllAccepted(t *testing.T) {
	// A strictly increasing sequence within the window capacity must never
	// miss — this is the sizing rule of § IV-C.
	env := evmtest.NewEnv(t, 2)
	addr := env.Deploy(t, newBitmapHarness(t, 8))
	for idx := uint64(0); idx < 50; idx++ {
		r, err := env.Wallets[1].Call(addr, "use", wallet.CallOpts{}, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Status {
			t.Fatalf("monotone index %d rejected: %v", idx, r.Err)
		}
	}
}

func TestBitmapSizing(t *testing.T) {
	// Table IV sizing: lifetime 1h × 35 tx/s = 126000 bits ≈ 15.38 KB.
	n := core.SizeFor(3600, 35)
	if n != 126000 {
		t.Errorf("SizeFor(3600, 35) = %d, want 126000", n)
	}
	bm, err := core.NewBitmap(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	words := bm.StorageWords()
	if words < 492 || words > 495 {
		t.Errorf("words = %d, want ≈493", words)
	}
	if _, err := core.NewBitmap(0, 0); err == nil {
		t.Error("zero-size bitmap accepted")
	}
	if core.SizeFor(0.1, 0.1) < 1 {
		t.Error("SizeFor must be at least 1")
	}
}
