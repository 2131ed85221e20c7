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

// A balance holds at most 2^256-1: a credit past it panics on a DB and
// on a View and leaves the balance as it was, and a debit wider than 256
// bits is an ordinary insufficient balance with the same text on both.
func TestBalanceOverflow(t *testing.T) {
	max := new(big.Int).Sub(two256, big.NewInt(1))
	db := New()
	db.AddBalance(addrA, max)
	v := NewView(db)
	for _, s := range []struct {
		name    string
		add     func(*big.Int)
		balance func() *big.Int
		sub     func(*big.Int) error
	}{
		{"db", func(x *big.Int) { db.AddBalance(addrA, x) }, func() *big.Int { return db.Balance(addrA) },
			func(x *big.Int) error { return db.SubBalance(addrA, x) }},
		{"view", func(x *big.Int) { v.AddBalance(addrA, x) }, func() *big.Int { return v.Balance(addrA) },
			func(x *big.Int) error { return v.SubBalance(addrA, x) }},
	} {
		mustPanic(t, s.name+" credit past 2^256-1", "overflows 256 bits", func() { s.add(big.NewInt(1)) })
		mustPanic(t, s.name+" credit of 2^256", "not a 256-bit amount", func() { s.add(two256) })
		mustPanic(t, s.name+" negative credit", "not a 256-bit amount", func() { s.add(big.NewInt(-1)) })
		if got := s.balance(); got.Cmp(max) != 0 {
			t.Errorf("%s: balance after the failed credits = %s, want 2^256-1", s.name, got)
		}
		err := s.sub(two256)
		if !errors.Is(err, ErrInsufficientBalance) {
			t.Fatalf("%s: debit of 2^256 = %v", s.name, err)
		}
		want := "state: insufficient balance: " + addrA.String() + " has " + max.String() + ", needs " + two256.String()
		if err.Error() != want {
			t.Errorf("%s: error text\n got %s\nwant %s", s.name, err, want)
		}
		mustPanic(t, s.name+" negative debit", "negative", func() { _ = s.sub(big.NewInt(-1)) })
	}
	if err := db.SubBalance(addrA, max); err != nil || db.Balance(addrA).Sign() != 0 {
		t.Errorf("debit of the whole balance: %v, left %s", err, db.Balance(addrA))
	}
}

// A failed debit touches nothing, on a DB as on a View: a fresh account
// stays absent.
func TestFailedDebitCreatesNoAccount(t *testing.T) {
	db := New()
	if err := db.SubBalance(addrB, big.NewInt(1)); !errors.Is(err, ErrInsufficientBalance) {
		t.Fatalf("debit of a fresh account = %v", err)
	}
	if db.Exists(addrB) {
		t.Error("failed debit created the account in the DB")
	}
	v := NewView(db)
	if err := v.SubBalance(addrB, big.NewInt(1)); !errors.Is(err, ErrInsufficientBalance) {
		t.Fatalf("view debit of a fresh account = %v", err)
	}
	if v.Exists(addrB) {
		t.Error("failed debit created the account in the view")
	}
}
