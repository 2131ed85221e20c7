// Package bench regenerates every table and figure of the paper's
// evaluation (§ VI) against the simulated substrate:
//
//	TableII      — single-token processing gas cost (Tab. II / E1)
//	TableIII     — call-chain gas for one-time argument tokens (Tab. III / E2)
//	TableIV      — one-time bitmap storage cost (Tab. IV / E3)
//	Figure8      — aggregated verification gas for 1-4 tokens (Fig. 8 / E4)
//	Figure9      — Token Service throughput (Fig. 9 / E5)
//	RuntimeTools — Hydra / ECFChecker request latency (§ VI-B / E6)
//	Baseline     — on-chain whitelist baseline (§ II-B motivation / E7)
//	E2E          — end-to-end scenario harness: a real HTTP Token
//	               Service, concurrent wallet clients, and batched
//	               on-chain verification, with exact accept/reject
//	               counts pinned by the CI envelope (e2e.go/scenario.go)
//
// Each function returns a structured result with a Format method printing
// the same rows/series the paper reports. cmd/smacs-bench is the CLI front
// end; bench_test.go at the repository root wires the same workloads into
// testing.B benchmarks.
package bench

import (
	"fmt"
	"math/big"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/gas"
	"repro/internal/secp256k1"
	"repro/internal/transform"
	"repro/internal/ts"
	"repro/internal/types"
	"repro/internal/wallet"
)

// argNote is sized so the act(...) calldata is 196 bytes — the ballpark of
// the calldata behind the paper's argument-token rows (Tab. II–III), whose
// verification cost grows with every byte of msg.data.
var argNote = strings.Repeat("x", 64)

// testbed is the shared benchmark environment: a funded chain, a Token
// Service, and a SMACS-enabled target contract exposing
// act(address,uint256,string).
type testbed struct {
	chain   *evm.Chain
	tsKey   *secp256k1.PrivateKey
	service *ts.Service
	owner   *wallet.Wallet
	client  *wallet.Wallet
	target  types.Address
}

// newTarget builds the legacy application contract the benchmarks protect.
func newTarget() *evm.Contract {
	c := evm.NewContract("Target")
	c.MustAddMethod(evm.Method{
		Name:       "act",
		Params:     []any{types.Address{}, (*big.Int)(nil), ""},
		Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			amount, _ := call.Arg(1).(*big.Int)
			return []any{amount}, nil
		},
	})
	return c
}

const benchBitmapBits = 4096

// paperNow is the clock of every paper-mode chain and Token Service: one
// fixed instant. Block times and token expiries, and with them each
// token's signature and the zero-byte count of its calldata (4 rather
// than 16 gas a byte), are then the same on every run, so the gas of
// Tab. II–IV and Fig. 8 reproduces exactly. Fig. 9 and § VI-B still time
// their work on the wall clock.
func paperNow() time.Time { return time.Date(2020, time.June, 29, 0, 0, 0, 0, time.UTC) }

// newPaperChain returns a chain on the paperNow clock.
func newPaperChain() *evm.Chain {
	cfg := evm.DefaultConfig()
	cfg.Now = paperNow
	return evm.NewChain(cfg)
}

func newTestbed() (*testbed, error) {
	chain := newPaperChain()
	tb := &testbed{
		chain:  chain,
		tsKey:  secp256k1.PrivateKeyFromSeed([]byte("bench ts key")),
		owner:  wallet.FromSeed("bench owner", chain),
		client: wallet.FromSeed("bench client", chain),
	}
	chain.Fund(tb.owner.Address(), ether(1_000_000))
	chain.Fund(tb.client.Address(), ether(1_000_000))

	svc, err := ts.New(ts.Config{Key: tb.tsKey, Now: paperNow})
	if err != nil {
		return nil, err
	}
	tb.service = svc

	verifier := core.NewVerifier(svc.Address())
	bm, err := core.NewBitmap(benchBitmapBits, 1<<32)
	if err != nil {
		return nil, err
	}
	verifier.WithBitmap(bm)
	protected := transform.Enable(newTarget(), verifier)
	addr, _, err := chain.Deploy(tb.owner.Address(), protected)
	if err != nil {
		return nil, err
	}
	tb.target = addr
	return tb, nil
}

func ether(n int64) *big.Int {
	return new(big.Int).Mul(big.NewInt(n), big.NewInt(1e18))
}

// actArgs are the canonical benchmark call arguments.
func (tb *testbed) actArgs() []any {
	return []any{types.Address{0xdd}, big.NewInt(42), argNote}
}

func (tb *testbed) actNamedArgs() []core.NamedArg {
	args := tb.actArgs()
	return []core.NamedArg{
		{Name: "to", Value: args[0]},
		{Name: "amount", Value: args[1]},
		{Name: "note", Value: args[2]},
	}
}

// actSignature is the canonical signature of the benchmark method.
const actSignature = "act(address,uint256,string)"

// request builds the token request for one call of act on the target.
func (tb *testbed) request(tp core.TokenType, oneTime bool) *core.Request {
	req := &core.Request{
		Type:     tp,
		Contract: tb.target,
		Sender:   tb.client.Address(),
		OneTime:  oneTime,
	}
	switch tp {
	case core.MethodType:
		req.Method = actSignature
	case core.ArgumentType:
		req.Method = "act"
		req.Args = tb.actNamedArgs()
	}
	return req
}

// issueAndCall obtains a token from the Token Service and performs the
// protected call, returning the receipt.
func (tb *testbed) issueAndCall(tp core.TokenType, oneTime bool) (*evm.Receipt, error) {
	tk, err := tb.service.Issue(tb.request(tp, oneTime))
	if err != nil {
		return nil, err
	}
	opts := wallet.WithTokens(wallet.TokenEntry{Contract: tb.target, Token: tk})
	r, err := tb.client.Call(tb.target, "act", opts, tb.actArgs()...)
	if err != nil {
		return nil, err
	}
	if !r.Status {
		return nil, fmt.Errorf("bench call reverted: %w", r.Err)
	}
	return r, nil
}

// CostRow is one cost breakdown in the Tab. II / Tab. III layout.
type CostRow struct {
	Verify uint64  `json:"verify"`
	Misc   uint64  `json:"misc"`
	Bitmap uint64  `json:"bitmap"`
	Parse  uint64  `json:"parse"`
	Total  uint64  `json:"total"`
	USD    float64 `json:"usd"`
}

func rowFromReceipt(r *evm.Receipt, price gas.Price) CostRow {
	verify := r.GasByCategory[gas.CatVerify]
	bitmap := r.GasByCategory[gas.CatBitmap]
	parse := r.GasByCategory[gas.CatParse]
	return CostRow{
		Verify: verify,
		Bitmap: bitmap,
		Parse:  parse,
		Misc:   r.GasUsed - verify - bitmap - parse,
		Total:  r.GasUsed,
		USD:    price.USD(r.GasUsed),
	}
}

func pct(part, total uint64) string {
	if total == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(total))
}
