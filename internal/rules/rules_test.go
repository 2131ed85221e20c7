package rules

import (
	"encoding/json"
	"errors"
	"math/big"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/types"
)

var (
	alice = types.Address{0xa1}
	bob   = types.Address{0xb0}
	carol = types.Address{0xca}
)

func superReq(sender types.Address) *core.Request {
	return &core.Request{Type: core.SuperType, Contract: types.Address{1}, Sender: sender}
}

func methodReq(sender types.Address, method string) *core.Request {
	return &core.Request{Type: core.MethodType, Contract: types.Address{1}, Sender: sender, Method: method}
}

func argReq(sender types.Address, method string, args ...core.NamedArg) *core.Request {
	return &core.Request{Type: core.ArgumentType, Contract: types.Address{1}, Sender: sender, Method: method, Args: args}
}

func TestListModes(t *testing.T) {
	wl := NewList(Whitelist, "0xaa", "0xbb")
	if !wl.Admits("0xAA") { // case-insensitive
		t.Error("whitelist rejects listed value")
	}
	if wl.Admits("0xcc") {
		t.Error("whitelist admits unlisted value")
	}
	bl := NewList(Blacklist, "0xaa")
	if bl.Admits("0xaa") {
		t.Error("blacklist admits listed value")
	}
	if !bl.Admits("0xcc") {
		t.Error("blacklist rejects unlisted value")
	}
	bl.Add("0xcc")
	if bl.Admits("0xcc") {
		t.Error("Add did not take effect")
	}
	bl.Remove("0xcc")
	if !bl.Admits("0xcc") {
		t.Error("Remove did not take effect")
	}
	if bl.Len() != 1 {
		t.Errorf("Len = %d, want 1", bl.Len())
	}
}

func TestEmptyRuleSetAllowsAll(t *testing.T) {
	rs := NewRuleSet()
	if err := rs.Check(superReq(alice)); err != nil {
		t.Errorf("empty rule set denied: %v", err)
	}
}

func TestSenderWhitelist(t *testing.T) {
	// Example 1: only a dynamic set of addresses may call.
	rs := NewRuleSet()
	rs.SetSenderList(NewList(Whitelist, core.ValueKey(alice)))

	if err := rs.Check(superReq(alice)); err != nil {
		t.Errorf("whitelisted sender denied: %v", err)
	}
	if err := rs.Check(superReq(bob)); !errors.Is(err, ErrDenied) {
		t.Errorf("unlisted sender allowed: %v", err)
	}

	// Dynamic update without touching the contract (Example 1's "dynamic
	// set").
	rs.AddSender(core.ValueKey(bob))
	if err := rs.Check(superReq(bob)); err != nil {
		t.Errorf("added sender still denied: %v", err)
	}
	rs.RemoveSender(core.ValueKey(bob))
	if err := rs.Check(superReq(bob)); !errors.Is(err, ErrDenied) {
		t.Error("removed sender still allowed")
	}
}

func TestSenderBlacklist(t *testing.T) {
	// Example 2: block a predefined set of addresses.
	rs := NewRuleSet()
	rs.SetSenderList(NewList(Blacklist, core.ValueKey(carol)))
	if err := rs.Check(superReq(alice)); err != nil {
		t.Errorf("innocent sender denied: %v", err)
	}
	if err := rs.Check(superReq(carol)); !errors.Is(err, ErrDenied) {
		t.Error("blacklisted sender allowed")
	}
}

func TestPerMethodList(t *testing.T) {
	// Example 3: only authorized parties can call a specific method.
	rs := NewRuleSet()
	rs.SetMethodList("withdraw", NewList(Whitelist, core.ValueKey(alice)))

	if err := rs.Check(methodReq(alice, "withdraw")); err != nil {
		t.Errorf("authorized method call denied: %v", err)
	}
	if err := rs.Check(methodReq(bob, "withdraw")); !errors.Is(err, ErrDenied) {
		t.Error("unauthorized method call allowed")
	}
	// Other methods are unaffected.
	if err := rs.Check(methodReq(bob, "deposit")); err != nil {
		t.Errorf("unrelated method denied: %v", err)
	}
	// Super tokens are not subject to method lists (they are governed by
	// the sender list).
	if err := rs.Check(superReq(bob)); err != nil {
		t.Errorf("super request hit a method list: %v", err)
	}
}

func TestArgumentValueList(t *testing.T) {
	// Example 3 (fine-tuned): specific arguments only.
	rs := NewRuleSet()
	rs.SetArgumentList("to", NewList(Whitelist, core.ValueKey(alice)))

	ok := argReq(bob, "transfer", core.NamedArg{Name: "to", Value: alice})
	if err := rs.Check(ok); err != nil {
		t.Errorf("whitelisted argument denied: %v", err)
	}
	bad := argReq(bob, "transfer", core.NamedArg{Name: "to", Value: carol})
	if err := rs.Check(bad); !errors.Is(err, ErrDenied) {
		t.Error("unlisted argument value allowed")
	}
	// Unconstrained argument names pass.
	free := argReq(bob, "transfer", core.NamedArg{Name: "amount", Value: big.NewInt(5)})
	if err := rs.Check(free); err != nil {
		t.Errorf("unconstrained argument denied: %v", err)
	}
}

func TestDangerousArgumentBlacklist(t *testing.T) {
	// § IV-E: "it is possible to blacklist dangerous argument values".
	rs := NewRuleSet()
	rs.SetArgumentList("amount", NewList(Blacklist, "666"))
	bad := argReq(alice, "mint", core.NamedArg{Name: "amount", Value: big.NewInt(666)})
	if err := rs.Check(bad); !errors.Is(err, ErrDenied) {
		t.Error("dangerous argument value allowed")
	}
	ok := argReq(alice, "mint", core.NamedArg{Name: "amount", Value: big.NewInt(667)})
	if err := rs.Check(ok); err != nil {
		t.Errorf("safe argument denied: %v", err)
	}
}

func TestJSONRoundTripFig6(t *testing.T) {
	// The Fig. 6 configuration shape.
	const cfg = `{
		"sender": {"whitelist": ["0x366c0ad2000000000000000000000000000000aa", "0xd488000000000000000000000000000000000bb"]},
		"method": {"methodA": {"blacklist": ["0xba7f0000000000000000000000000000000000cc"]}},
		"argument": {"argA": {"whitelist": ["0x3540000000000000000000000000000000000dd"]}}
	}`
	rs := NewRuleSet()
	if err := json.Unmarshal([]byte(cfg), rs); err != nil {
		t.Fatal(err)
	}
	okSender, _ := types.HexToAddress("0x366c0ad2000000000000000000000000000000aa")
	if err := rs.Check(superReq(okSender)); err != nil {
		t.Errorf("configured sender denied: %v", err)
	}
	if err := rs.Check(superReq(bob)); !errors.Is(err, ErrDenied) {
		t.Error("unlisted sender allowed after JSON load")
	}

	out, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	rs2 := NewRuleSet()
	if err := json.Unmarshal(out, rs2); err != nil {
		t.Fatal(err)
	}
	if err := rs2.Check(superReq(okSender)); err != nil {
		t.Errorf("round-tripped rule set denied: %v", err)
	}
}

func TestJSONRejectsAmbiguousList(t *testing.T) {
	rs := NewRuleSet()
	err := json.Unmarshal([]byte(`{"sender": {"whitelist": ["a"], "blacklist": ["b"]}}`), rs)
	if err == nil {
		t.Error("list with both modes accepted")
	}
}

func TestSnapshotIsIndependent(t *testing.T) {
	rs := NewRuleSet()
	rs.SetSenderList(NewList(Whitelist, core.ValueKey(alice)))
	snap := rs.Snapshot()
	rs.AddSender(core.ValueKey(bob))
	if err := snap.Check(superReq(bob)); !errors.Is(err, ErrDenied) {
		t.Error("snapshot observed later mutation")
	}
}

func TestConcurrentAccess(t *testing.T) {
	rs := NewRuleSet()
	rs.SetSenderList(NewList(Whitelist, core.ValueKey(alice)))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				rs.AddSender(core.ValueKey(types.Address{byte(i), byte(j)}))
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = rs.Check(superReq(alice))
			}
		}()
	}
	wg.Wait()
	if err := rs.Check(superReq(alice)); err != nil {
		t.Errorf("alice denied after concurrent churn: %v", err)
	}
}

// admitsKey must agree with Admits on every value, whether it takes the
// byte lookup (keys canon leaves unchanged) or falls back to canon.
func TestAdmitsKeyMatchesAdmits(t *testing.T) {
	values := []string{"", " ", "0xabc", "0xABC", " 0xabc", "0xabc\t", "a b", "Straße", "ÄBC", "x ", "\u0085x", "42", "true"}
	for _, mode := range []Mode{Whitelist, Blacklist} {
		l := NewList(mode, "0xabc", "a b", "straße", "42", "x")
		for _, v := range values {
			if got, want := l.admitsKey([]byte(v)), l.Admits(v); got != want {
				t.Errorf("%s %q: admitsKey = %v, Admits = %v", mode, v, got, want)
			}
		}
	}
}
