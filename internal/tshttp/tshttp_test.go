package tshttp

import (
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/ts"
	"repro/internal/types"
)

var (
	httpTSKey = secp256k1.PrivateKeyFromSeed([]byte("http ts"))
	httpCli   = types.Address{0xc1}
	httpDst   = types.Address{0x01}
)

func newTestServer(t *testing.T, ownerToken string) (*httptest.Server, *ts.Service) {
	t.Helper()
	svc, err := ts.New(ts.Config{
		Key: httpTSKey,
		Now: func() time.Time { return time.Date(2020, 3, 17, 12, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(svc, ownerToken).Handler())
	t.Cleanup(srv.Close)
	return srv, svc
}

func TestTokenRequestOverHTTP(t *testing.T) {
	srv, svc := newTestServer(t, "")
	client := NewClient(srv.URL, "")

	req := &core.Request{Type: core.SuperType, Contract: httpDst, Sender: httpCli, OneTime: true}
	tk, err := client.RequestToken(req)
	if err != nil {
		t.Fatal(err)
	}
	if tk.Type != core.SuperType || tk.Index != 1 {
		t.Errorf("token = %+v", tk)
	}
	if err := tk.VerifySignature(svc.Address(), core.Binding{Origin: httpCli, Contract: httpDst}); err != nil {
		t.Errorf("token from HTTP does not verify: %v", err)
	}
}

func TestArgumentRequestRoundTrip(t *testing.T) {
	srv, svc := newTestServer(t, "")
	client := NewClient(srv.URL, "")

	req := &core.Request{
		Type: core.ArgumentType, Contract: httpDst, Sender: httpCli,
		Method: "transfer",
		Args: []core.NamedArg{
			{Name: "to", Value: types.Address{0xdd}},
			{Name: "amount", Value: big.NewInt(42)},
			{Name: "note", Value: "hello"},
			{Name: "flag", Value: true},
			{Name: "blob", Value: []byte{1, 2, 3}},
		},
	}
	tk, err := client.RequestToken(req)
	if err != nil {
		t.Fatal(err)
	}
	binding, err := req.Binding()
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.VerifySignature(svc.Address(), binding); err != nil {
		t.Errorf("argument token does not verify after wire round trip: %v", err)
	}
}

func TestDeniedRequestsGetForbidden(t *testing.T) {
	srv, svc := newTestServer(t, "")
	deny := rules.NewRuleSet()
	deny.SetSenderList(rules.NewList(rules.Whitelist)) // empty: deny all
	svc.ReplaceRules(deny)

	client := NewClient(srv.URL, "")
	_, err := client.RequestToken(&core.Request{Type: core.SuperType, Contract: httpDst, Sender: httpCli})
	if err == nil || !strings.Contains(err.Error(), "403") {
		t.Errorf("err = %v, want HTTP 403 denial", err)
	}
}

func TestMalformedRequestsGetBadRequest(t *testing.T) {
	srv, _ := newTestServer(t, "")
	client := NewClient(srv.URL, "")
	// Super token with a method is a shape violation (Tab. I).
	_, err := client.RequestToken(&core.Request{Type: core.SuperType, Contract: httpDst, Sender: httpCli, Method: "x"})
	if err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("err = %v, want HTTP 400", err)
	}
}

func TestInfo(t *testing.T) {
	srv, svc := newTestServer(t, "")
	client := NewClient(srv.URL, "")
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Address != svc.Address().Hex() {
		t.Errorf("info address = %s, want %s", info.Address, svc.Address().Hex())
	}
	if info.LifetimeSeconds != 3600 {
		t.Errorf("lifetime = %d, want 3600", info.LifetimeSeconds)
	}
}

func TestRuleAdministration(t *testing.T) {
	srv, _ := newTestServer(t, "owner-secret")

	owner := NewClient(srv.URL, "owner-secret")
	rs := rules.NewRuleSet()
	rs.SetSenderList(rules.NewList(rules.Whitelist, core.ValueKey(httpCli)))
	if err := owner.UpdateRules(rs); err != nil {
		t.Fatal(err)
	}

	// The rules took effect: whitelisted sender passes, others fail.
	cli := NewClient(srv.URL, "")
	if _, err := cli.RequestToken(&core.Request{Type: core.SuperType, Contract: httpDst, Sender: httpCli}); err != nil {
		t.Errorf("whitelisted sender denied after rule push: %v", err)
	}
	if _, err := cli.RequestToken(&core.Request{Type: core.SuperType, Contract: httpDst, Sender: types.Address{0xee}}); err == nil {
		t.Error("unlisted sender allowed after rule push")
	}

	// Owner can read the rules back.
	back, err := owner.FetchRules()
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Check(&core.Request{Type: core.SuperType, Contract: httpDst, Sender: types.Address{0xee}}); err == nil {
		t.Error("fetched rules lost the whitelist")
	}
}

func TestRulePrivacyFromClients(t *testing.T) {
	// § VII-A(d): rules are private. Clients (no/wrong bearer) must not be
	// able to read or write them.
	srv, _ := newTestServer(t, "owner-secret")

	for _, bearer := range []string{"", "wrong"} {
		cli := NewClient(srv.URL, bearer)
		if _, err := cli.FetchRules(); err == nil || !strings.Contains(err.Error(), "401") {
			t.Errorf("bearer %q: rules leaked to client: %v", bearer, err)
		}
		if err := cli.UpdateRules(rules.NewRuleSet()); err == nil {
			t.Errorf("bearer %q: client replaced the rules", bearer)
		}
	}
}

func TestAdminDisabledWithoutToken(t *testing.T) {
	srv, _ := newTestServer(t, "")
	// Even an empty bearer must not unlock a server configured without an
	// owner token (fail closed).
	cli := NewClient(srv.URL, "")
	if _, err := cli.FetchRules(); err == nil || !strings.Contains(err.Error(), "403") {
		t.Errorf("rules endpoint open on tokenless server: %v", err)
	}
}

func TestWireArgKinds(t *testing.T) {
	tests := []struct {
		arg     WireArg
		wantErr bool
	}{
		{WireArg{Name: "a", Kind: "address", Value: "0x0000000000000000000000000000000000000001"}, false},
		{WireArg{Name: "a", Kind: "uint256", Value: "12345678901234567890"}, false},
		{WireArg{Name: "a", Kind: "uint256", Value: "-1"}, true},
		{WireArg{Name: "a", Kind: "uint256", Value: "abc"}, true},
		{WireArg{Name: "a", Kind: "bool", Value: "true"}, false},
		{WireArg{Name: "a", Kind: "bool", Value: "yes"}, true},
		{WireArg{Name: "a", Kind: "bytes", Value: "0xdeadbeef"}, false},
		{WireArg{Name: "a", Kind: "bytes", Value: "0xzz"}, true},
		{WireArg{Name: "a", Kind: "string", Value: "anything"}, false},
		{WireArg{Name: "a", Kind: "float", Value: "1.5"}, true},
	}
	for _, tt := range tests {
		_, err := DecodeArg(tt.arg)
		if (err != nil) != tt.wantErr {
			t.Errorf("DecodeArg(%+v) err = %v, wantErr %v", tt.arg, err, tt.wantErr)
		}
	}
}

func TestEncodeDecodeArgRoundTrip(t *testing.T) {
	vals := []any{
		types.Address{0xaa},
		big.NewInt(999),
		uint64(7),
		true,
		[]byte{9, 8, 7},
		"text",
	}
	for _, v := range vals {
		wa, err := EncodeArg("x", v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		back, err := DecodeArg(wa)
		if err != nil {
			t.Fatalf("%T decode: %v", v, err)
		}
		// uint64 comes back as *big.Int by design.
		if u, ok := v.(uint64); ok {
			if back.(*big.Int).Uint64() != u {
				t.Errorf("uint64 round trip: %v", back)
			}
			continue
		}
		if core.ValueKey(back) != core.ValueKey(v) {
			t.Errorf("%T round trip: %v != %v", v, back, v)
		}
	}
}

// GET /v1/stats reports the service's aggregate counters; after traffic
// quiesces they must match the outcomes clients observed.
func TestStatsOverHTTP(t *testing.T) {
	srv, svc := newTestServer(t, "")
	client := NewClient(srv.URL, "")

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Issued != 0 || st.Rejected != 0 {
		t.Errorf("fresh service stats = %+v, want zeros", st)
	}

	if _, err := client.RequestToken(&core.Request{Type: core.SuperType, Contract: httpDst, Sender: httpCli}); err != nil {
		t.Fatal(err)
	}
	// A malformed request (super tokens carry no method) must be rejected
	// and counted.
	if _, err := client.RequestToken(&core.Request{Type: core.SuperType, Contract: httpDst, Sender: httpCli, Method: "x()"}); err == nil {
		t.Fatal("malformed request unexpectedly issued")
	}

	st, err = client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Issued != 1 || st.Rejected != 1 {
		t.Errorf("stats = %+v, want issued 1 rejected 1", st)
	}
	wantIssued, wantRejected := svc.Stats()
	if st.Issued != wantIssued || st.Rejected != wantRejected {
		t.Errorf("HTTP stats %+v disagree with service stats (%d, %d)", st, wantIssued, wantRejected)
	}
}

// TestAdminMountOwnerGuard pins the membership/admin mount contract:
// the handler is reachable under /v1/membership/ and /v1/admin/ with the
// owner bearer token, rejected without it, and fails closed when no
// owner token is configured.
func TestAdminMountOwnerGuard(t *testing.T) {
	mk := func(ownerToken string) *httptest.Server {
		svc, err := ts.New(ts.Config{
			Key: httpTSKey,
			Now: func() time.Time { return time.Date(2020, 3, 17, 12, 0, 0, 0, time.UTC) },
		})
		if err != nil {
			t.Fatal(err)
		}
		admin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte(`{"reached":"` + r.URL.Path + `"}`))
		})
		srv := httptest.NewServer(NewServerWithOptions(svc, ownerToken, ServerOptions{Admin: admin}).Handler())
		t.Cleanup(srv.Close)
		return srv
	}

	do := func(url, token string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	guarded := mk("s3cret")
	for _, path := range []string{"/v1/membership/freeze", "/v1/admin/join"} {
		if code := do(guarded.URL+path, "s3cret"); code != http.StatusOK {
			t.Fatalf("%s with owner token: status %d", path, code)
		}
		if code := do(guarded.URL+path, "wrong"); code != http.StatusUnauthorized {
			t.Fatalf("%s with bad token: status %d, want 401", path, code)
		}
		if code := do(guarded.URL+path, ""); code != http.StatusUnauthorized {
			t.Fatalf("%s without token: status %d, want 401", path, code)
		}
	}

	open := mk("")
	if code := do(open.URL+"/v1/admin/join", ""); code != http.StatusForbidden {
		t.Fatalf("adminless daemon served /v1/admin: status %d, want 403", code)
	}
}

// A Token Service whose reply never ends must cost the client a prompt
// error at the reply cap, not an unbounded read until the deadline.
func TestClientCapsEndlessReply(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(nettest.Endless))
	t.Cleanup(srv.Close)
	start := time.Now()
	_, err := NewClient(srv.URL, "").Stats()
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("endless reply: err = %v, want the reply cap", err)
	}
	if d := time.Since(start); d > singleTimeout/2 {
		t.Fatalf("endless reply took %v to fail", d)
	}
}
