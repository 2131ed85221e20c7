package state

import (
	"errors"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

var two256 = new(big.Int).Lsh(big.NewInt(1), 256)

// weiFromLimbs builds a Wei and its *big.Int oracle from four limbs.
func weiFromLimbs(l [4]uint64) (Wei, *big.Int) {
	b := new(big.Int)
	for i := 3; i >= 0; i-- {
		b.Lsh(b, 64)
		b.Or(b, new(big.Int).SetUint64(l[i]))
	}
	return Wei(l), b
}

// Wei arithmetic agrees with math/big, overflow included.
func TestWeiMatchesBigInt(t *testing.T) {
	f := func(x, y [4]uint64, m uint64, shrink uint8) bool {
		// Shrink some operands so that carries, borrows and non-overflowing
		// products are all exercised, not only full-width values.
		for i := 0; i < int(shrink%4); i++ {
			x[3-i], y[3-i] = 0, 0
		}
		a, ab := weiFromLimbs(x)
		b, bb := weiFromLimbs(y)
		if back, ok := WeiOf(ab); !ok || back != a || a.Big().Cmp(ab) != 0 || a.String() != ab.String() {
			return false
		}
		if a.Cmp(b) != ab.Cmp(bb) {
			return false
		}
		sum, ok := a.Add(b)
		want := new(big.Int).Add(ab, bb)
		if ok != (want.Cmp(two256) < 0) || (ok && sum.Big().Cmp(want) != 0) {
			return false
		}
		if a.Cmp(b) >= 0 && a.Sub(b).Big().Cmp(new(big.Int).Sub(ab, bb)) != 0 {
			return false
		}
		prod, ok := a.MulUint64(m)
		want = new(big.Int).Mul(ab, new(big.Int).SetUint64(m))
		return ok == (want.Cmp(two256) < 0) && (!ok || prod.Big().Cmp(want) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeiOfRejectsNegativeAndWide(t *testing.T) {
	for _, v := range []*big.Int{big.NewInt(-1), two256} {
		if _, ok := WeiOf(v); ok {
			t.Errorf("WeiOf(%s) accepted", v)
		}
	}
	max := new(big.Int).Sub(two256, big.NewInt(1))
	if w, ok := WeiOf(max); !ok || w != (Wei{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}) {
		t.Errorf("WeiOf(2^256-1) = %v, %v", w, ok)
	}
	if w, ok := WeiOf(nil); !ok || !w.IsZero() {
		t.Errorf("WeiOf(nil) = %v, %v", w, ok)
	}
}

// mustPanic runs f and reports whether it panicked with a message
// containing want.
func mustPanic(t *testing.T, label, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		p := recover()
		if p == nil {
			t.Errorf("%s: no panic", label)
			return
		}
		if msg, _ := p.(string); !strings.Contains(msg, want) {
			t.Errorf("%s: panic %v, want it to mention %q", label, p, want)
		}
	}()
	f()
}

// A balance holds at most 2^256-1: a credit past it panics and leaves
// the balance as it was, and a debit wider than 256 bits is an ordinary
// insufficient balance.
func TestBalanceOverflow(t *testing.T) {
	max := new(big.Int).Sub(two256, big.NewInt(1))
	db := New()
	commit(db, func(v *View) { v.AddBalance(addrA, max) })
	v := NewView(db)
	mustPanic(t, "credit past 2^256-1", "overflows 256 bits", func() { v.AddBalance(addrA, big.NewInt(1)) })
	mustPanic(t, "credit of 2^256", "not a 256-bit amount", func() { v.AddBalance(addrA, two256) })
	mustPanic(t, "negative credit", "not a 256-bit amount", func() { v.AddBalance(addrA, big.NewInt(-1)) })
	if got := v.Balance(addrA); got.Cmp(max) != 0 {
		t.Errorf("balance after the failed credits = %s, want 2^256-1", got)
	}
	err := v.SubBalance(addrA, two256)
	if !errors.Is(err, ErrInsufficientBalance) {
		t.Fatalf("debit of 2^256 = %v", err)
	}
	want := "state: insufficient balance: " + addrA.String() + " has " + max.String() + ", needs " + two256.String()
	if err.Error() != want {
		t.Errorf("error text\n got %s\nwant %s", err, want)
	}
	mustPanic(t, "negative debit", "negative", func() { _ = v.SubBalance(addrA, big.NewInt(-1)) })
	if wa, ws := writeSet(v.Writes()); len(wa)+len(ws) != 0 {
		t.Errorf("failed credits and debits wrote %d accounts and %d slots", len(wa), len(ws))
	}
	if err := v.SubBalance(addrA, max); err != nil {
		t.Fatalf("debit of the whole balance: %v", err)
	}
	db.ApplyWrites(v.Writes())
	if got := db.Balance(addrA); got.Sign() != 0 {
		t.Errorf("debit of the whole balance left %s", got)
	}
}

// A failed debit touches nothing: a fresh account stays absent in the
// view and in the DB it commits to.
func TestFailedDebitCreatesNoAccount(t *testing.T) {
	db := New()
	commit(db, func(v *View) {
		if err := v.SubBalance(addrB, big.NewInt(1)); !errors.Is(err, ErrInsufficientBalance) {
			t.Fatalf("debit of a fresh account = %v", err)
		}
		if v.Exists(addrB) {
			t.Error("failed debit created the account in the view")
		}
	})
	if db.Exists(addrB) {
		t.Error("failed debit created the account in the DB")
	}
}
