package tshttp

import (
	"fmt"
	"math/big"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/ts"
	"repro/internal/types"
)

// issuanceFixture is a loopback copy of the repository benchmark's
// issue-http workload: a Token Service that demands proofs of
// possession, a sender whitelist and argument rules, behind its HTTP
// frontend, and wallets that sign their requests.
type issuanceFixture struct {
	svc    *ts.Service
	client *Client
	keys   []*secp256k1.PrivateKey
}

// issuanceWallets is the number of client accounts; all are whitelisted.
const issuanceWallets = 16

func newIssuanceFixture(tb testing.TB) *issuanceFixture {
	tb.Helper()
	f := &issuanceFixture{}
	rs := rules.NewRuleSet()
	senders := rules.NewList(rules.Whitelist)
	for i := 0; i < issuanceWallets; i++ {
		key := secp256k1.PrivateKeyFromSeed([]byte(fmt.Sprintf("issuance wallet %d", i)))
		f.keys = append(f.keys, key)
		senders.Add(key.Address().Hex())
	}
	for i := 0; i < 1024; i++ {
		senders.Add(types.Address{0xf0, byte(i >> 8), byte(i)}.Hex())
	}
	rs.SetSenderList(senders)
	amounts := rules.NewList(rules.Whitelist)
	for a := 1; a <= 64; a++ {
		amounts.Add(fmt.Sprint(a))
	}
	rs.SetArgumentList("amount", amounts)
	rs.SetArgumentList("recipient", rules.NewList(rules.Blacklist, types.Address{0xba}.Hex()))
	svc, err := ts.New(ts.Config{Key: httpTSKey, Contract: httpDst, Rules: rs,
		RequireProof: true, Metrics: metrics.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	f.svc = svc
	srv := httptest.NewServer(NewServerWithOptions(svc, "", ServerOptions{Registry: metrics.NewRegistry()}).Handler())
	tb.Cleanup(srv.Close)
	f.client = NewClient(srv.URL, "")
	return f
}

// request builds the unsigned request of op i: a third each super,
// method and argument requests, from a rotating wallet.
func (f *issuanceFixture) request(i int) (*core.Request, *secp256k1.PrivateKey) {
	key := f.keys[i%len(f.keys)]
	req := &core.Request{Contract: httpDst, Sender: key.Address()}
	switch i % 3 {
	case 0:
		req.Type = core.SuperType
	case 1:
		req.Type, req.Method = core.MethodType, "buy(address,uint256)"
	default:
		req.Type, req.Method = core.ArgumentType, "buy"
		req.Args = []core.NamedArg{
			{Name: "recipient", Value: f.keys[(i+1)%len(f.keys)].Address()},
			{Name: "amount", Value: big.NewInt(int64(i%64) + 1)},
		}
	}
	return req, key
}

// op signs and submits the request of op i over HTTP.
func (f *issuanceFixture) op(tb testing.TB, i int) {
	req, key := f.request(i)
	if err := core.SignRequest(req, key); err != nil {
		tb.Fatal(err)
	}
	if _, err := f.client.RequestToken(req); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkIssueHTTP is one issued token per op, from the wallet's
// proof of possession through the HTTP round trip to the parsed token.
// Its allocs/op is the issue-http workload's less the load generator's.
func BenchmarkIssueHTTP(b *testing.B) {
	f := newIssuanceFixture(b)
	for i := 0; i < 3; i++ {
		f.op(b, i) // open the connection and create the metric series
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.op(b, i)
	}
}

// TestIssuancePathAllocations holds each step of the issuance hop to its
// allocation budget: the proof digest, signature parsing and signing
// allocate nothing, a signed request only its Proof, an argument
// request's binding its argument values and msg.data, and what remains of
// a round trip is net/http's and encoding/json's.
func TestIssuancePathAllocations(t *testing.T) {
	f := newIssuanceFixture(t)
	for i := 0; i < 3; i++ {
		f.op(t, i)
	}
	super, key := f.request(0)
	if err := core.SignRequest(super, key); err != nil {
		t.Fatal(err)
	}
	arg, argKey := f.request(2)
	digest := [32]byte(super.ProofDigest())
	var i int
	cases := []struct {
		name      string
		max, race float64
		run       func()
	}{
		{"ProofDigest", 0, 0, func() { _ = arg.ProofDigest() }},
		{"ParseSignature", 0, 0, func() { _, _ = secp256k1.ParseSignature(super.Proof) }},
		{"Sign", 0, 0, func() { _, _ = secp256k1.Sign(key, digest) }},
		{"SignRequest", 1, 1, func() { _ = core.SignRequest(arg, argKey) }},
		{"Request.Binding", 2, 3, func() { _, _ = arg.Binding() }},
		{"Service.Issue", 0, 0, func() { _, _ = f.svc.Issue(super) }},
		{"Client.RequestToken", 148, 158, func() { f.op(t, i); i++ }},
	}
	for _, c := range cases {
		budget := c.max
		if raceEnabled {
			budget = c.race
		}
		if got := testing.AllocsPerRun(50, c.run); got > budget {
			t.Errorf("%s: %.0f allocs per call, budget %.0f", c.name, got, budget)
		}
	}
}
