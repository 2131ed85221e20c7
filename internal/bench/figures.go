package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/rtverify/ecf"
	"repro/internal/rtverify/hydra"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/ts"
	"repro/internal/types"
	"repro/internal/wallet"
)

// Figure8Series identifies the four series of Fig. 8.
var Figure8Series = []string{"super", "method", "argument", "argument-onetime"}

// Figure8Result holds the aggregated verification gas of Fig. 8.
type Figure8Result struct {
	// Counts are the token counts (call-chain depths), 1-4.
	Counts []int `json:"counts"`
	// TotalGas maps a series name to the total gas per count.
	TotalGas map[string][]uint64 `json:"totalGas"`
}

// Figure8 measures the aggregated gas of verifying 1-4 tokens per
// transaction for each token type (experiment E4).
func Figure8() (*Figure8Result, error) {
	res := &Figure8Result{TotalGas: make(map[string][]uint64, 4)}
	for depth := 1; depth <= 4; depth++ {
		res.Counts = append(res.Counts, depth)
	}
	configs := []struct {
		name    string
		tp      core.TokenType
		oneTime bool
	}{
		{"super", core.SuperType, false},
		{"method", core.MethodType, false},
		{"argument", core.ArgumentType, false},
		{"argument-onetime", core.ArgumentType, true},
	}
	for _, cfg := range configs {
		for _, depth := range res.Counts {
			row, err := ChainRun(depth, cfg.tp, cfg.oneTime)
			if err != nil {
				return nil, fmt.Errorf("figure 8 %s depth %d: %w", cfg.name, depth, err)
			}
			res.TotalGas[cfg.name] = append(res.TotalGas[cfg.name], row.Total)
		}
	}
	return res, nil
}

// Format renders the Fig. 8 series as rows of gas totals.
func (f *Figure8Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8: Aggregated gas cost for verifying multiple tokens\n")
	fmt.Fprintf(&b, "  %-18s", "tokens")
	for _, c := range f.Counts {
		fmt.Fprintf(&b, " %12d", c)
	}
	fmt.Fprintln(&b)
	for _, name := range Figure8Series {
		fmt.Fprintf(&b, "  %-18s", name)
		for _, v := range f.TotalGas[name] {
			fmt.Fprintf(&b, " %12d", v)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Figure9Result holds the Token Service throughput of Fig. 9.
type Figure9Result struct {
	// BatchSizes are the request-batch sizes (10^0 .. 10^maxExp).
	BatchSizes []int `json:"batchSizes"`
	// ReqPerSec maps a series to requests/second per batch size.
	ReqPerSec map[string][]float64 `json:"reqPerSec"`
}

// Figure9 measures Token Service issuance throughput for batches of
// 10^0..10^maxExp requests per token type, under Fig. 6-style white/black
// lists (experiment E5). The paper runs maxExp = 5.
func Figure9(maxExp int) (*Figure9Result, error) {
	if maxExp < 0 {
		maxExp = 0
	}
	client := types.Address{0xc1}
	target := types.Address{0x01}

	// Fig. 6-style rules: a sender whitelist (with filler entries so
	// lookups are realistic), a method blacklist, and an argument
	// whitelist.
	rs := rules.NewRuleSet()
	senderList := rules.NewList(rules.Whitelist, core.ValueKey(client))
	for i := 0; i < 1000; i++ {
		senderList.Add(core.ValueKey(types.Address{0xf0, byte(i >> 8), byte(i)}))
	}
	rs.SetSenderList(senderList)
	methodList := rules.NewList(rules.Blacklist)
	for i := 0; i < 1000; i++ {
		methodList.Add(core.ValueKey(types.Address{0xf1, byte(i >> 8), byte(i)}))
	}
	rs.SetMethodList("act", methodList)
	argList := rules.NewList(rules.Whitelist, core.ValueKey(types.Address{0xdd}))
	for i := 0; i < 1000; i++ {
		argList.Add(core.ValueKey(types.Address{0xf2, byte(i >> 8), byte(i)}))
	}
	rs.SetArgumentList("to", argList)

	svc, err := ts.New(ts.Config{
		Key:   secp256k1.PrivateKeyFromSeed([]byte("fig9 ts key")),
		Rules: rs,
		Now:   paperNow,
	})
	if err != nil {
		return nil, err
	}

	requests := map[string]*core.Request{
		"super": {Type: core.SuperType, Contract: target, Sender: client},
		"method": {Type: core.MethodType, Contract: target, Sender: client,
			Method: "act(address,uint256,string)"},
		"argument": {Type: core.ArgumentType, Contract: target, Sender: client,
			Method: "act", Args: []core.NamedArg{
				{Name: "to", Value: types.Address{0xdd}},
				{Name: "amount", Value: uint64(42)},
				{Name: "note", Value: argNote},
			}},
		"argument-onetime": {Type: core.ArgumentType, Contract: target, Sender: client,
			Method: "act", OneTime: true, Args: []core.NamedArg{
				{Name: "to", Value: types.Address{0xdd}},
				{Name: "amount", Value: uint64(42)},
				{Name: "note", Value: argNote},
			}},
	}

	res := &Figure9Result{ReqPerSec: make(map[string][]float64, len(requests))}
	for e := 0; e <= maxExp; e++ {
		n := 1
		for i := 0; i < e; i++ {
			n *= 10
		}
		res.BatchSizes = append(res.BatchSizes, n)
	}
	for _, name := range Figure8Series {
		req := requests[name]
		for _, n := range res.BatchSizes {
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, err := svc.Issue(req); err != nil {
					return nil, fmt.Errorf("figure 9 %s: %w", name, err)
				}
			}
			elapsed := time.Since(start)
			res.ReqPerSec[name] = append(res.ReqPerSec[name], float64(n)/elapsed.Seconds())
		}
	}
	return res, nil
}

// Format renders the Fig. 9 series.
func (f *Figure9Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9: Throughput of the TS (requests processed per second)\n")
	fmt.Fprintf(&b, "  %-18s", "batch size")
	for _, n := range f.BatchSizes {
		fmt.Fprintf(&b, " %12d", n)
	}
	fmt.Fprintln(&b)
	for _, name := range Figure8Series {
		fmt.Fprintf(&b, "  %-18s", name)
		for _, v := range f.ReqPerSec[name] {
			fmt.Fprintf(&b, " %12.0f", v)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// ToolsResult holds the runtime-verification throughput of § VI-B.
type ToolsResult struct {
	Requests       int     `json:"requests"`
	HydraMsPerReq  float64 `json:"hydraMsPerReq"`
	HydraReqPerSec float64 `json:"hydraReqPerSec"`
	ECFMsPerReq    float64 `json:"ecfMsPerReq"`
	ECFReqPerSec   float64 `json:"ecfReqPerSec"`
}

// RuntimeTools measures the average time for a Token Service backed by
// Hydra (three heads) and by the ECF checker to process a token request
// (experiment E6; the paper sends 100 transactions each).
func RuntimeTools(nRequests int) (*ToolsResult, error) {
	if nRequests <= 0 {
		nRequests = 100
	}
	res := &ToolsResult{Requests: nRequests}

	// Hydra: a simple contract in three "languages" (§ VI-B).
	tool, err := hydra.New(
		hydra.Head{Name: "solidity", Build: contracts.NewCalculatorFormula},
		hydra.Head{Name: "vyper", Build: contracts.NewCalculatorLoop},
		hydra.Head{Name: "serpent", Build: contracts.NewCalculatorPairwise},
	)
	if err != nil {
		return nil, err
	}
	hydraReq := &core.Request{
		Type:     core.ArgumentType,
		Contract: types.Address{0x01},
		Sender:   types.Address{0xc1},
		Method:   "sumTo",
		Args:     []core.NamedArg{{Name: "n", Value: uint64(1000)}},
	}
	start := time.Now()
	for i := 0; i < nRequests; i++ {
		if err := tool.Validate(hydraReq); err != nil {
			return nil, fmt.Errorf("hydra validate: %w", err)
		}
	}
	elapsed := time.Since(start)
	res.HydraMsPerReq = float64(elapsed.Milliseconds()) / float64(nRequests)
	res.HydraReqPerSec = float64(nRequests) / elapsed.Seconds()

	// ECFChecker: the vulnerable Bank of § V deployed on the TS testnet.
	mirror, bankAddr, victim, err := ecfMirror()
	if err != nil {
		return nil, err
	}
	checker := ecf.New(mirror, bankAddr)
	ecfReq := &core.Request{
		Type:     core.ArgumentType,
		Contract: bankAddr,
		Sender:   victim,
		Method:   "withdraw",
	}
	start = time.Now()
	for i := 0; i < nRequests; i++ {
		if err := checker.Validate(ecfReq); err != nil {
			return nil, fmt.Errorf("ecf validate: %w", err)
		}
	}
	elapsed = time.Since(start)
	res.ECFMsPerReq = float64(elapsed.Milliseconds()) / float64(nRequests)
	res.ECFReqPerSec = float64(nRequests) / elapsed.Seconds()
	return res, nil
}

// ecfMirror builds the TS-local testnet of § V-B: the legacy Bank with a
// funded depositor.
func ecfMirror() (chain *evm.Chain, bank, victim types.Address, err error) {
	c := newPaperChain()
	owner := wallet.FromSeed("ecf owner", c)
	depositor := wallet.FromSeed("ecf victim", c)
	c.Fund(owner.Address(), ether(1000))
	c.Fund(depositor.Address(), ether(1000))
	bankAddr, _, err := c.Deploy(owner.Address(), contracts.NewBank())
	if err != nil {
		return nil, types.Address{}, types.Address{}, err
	}
	r, err := depositor.Call(bankAddr, "addBalance", wallet.CallOpts{Value: ether(10)})
	if err != nil {
		return nil, types.Address{}, types.Address{}, err
	}
	if !r.Status {
		return nil, types.Address{}, types.Address{}, fmt.Errorf("mirror deposit reverted: %w", r.Err)
	}
	return c, bankAddr, depositor.Address(), nil
}

// Format renders the § VI-B measurements.
func (t *ToolsResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§ VI-B: Token Service with runtime verification tools (%d requests)\n", t.Requests)
	fmt.Fprintf(&b, "  %-22s %12s %12s\n", "Tool", "ms/request", "requests/s")
	fmt.Fprintf(&b, "  %-22s %12.2f %12.0f\n", "Hydra (3 heads)", t.HydraMsPerReq, t.HydraReqPerSec)
	fmt.Fprintf(&b, "  %-22s %12.2f %12.0f\n", "ECFChecker", t.ECFMsPerReq, t.ECFReqPerSec)
	return b.String()
}
