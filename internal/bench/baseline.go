package bench

import (
	"fmt"
	"strings"

	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/wallet"
)

// BaselineRow is one whitelist size of the on-chain baseline (E7).
type BaselineRow struct {
	// N is the whitelist size.
	N int `json:"n"`
	// PopulateGas is the total gas to whitelist N addresses on-chain.
	PopulateGas uint64 `json:"populateGas"`
	// PopulateUSD converts PopulateGas.
	PopulateUSD float64 `json:"populateUSD"`
	// PerCallGas is the per-call cost of the on-chain whitelist check.
	PerCallGas uint64 `json:"perCallGas"`
}

// BaselineResult compares the on-chain whitelist baseline against SMACS.
type BaselineResult struct {
	Rows []BaselineRow `json:"rows"`
	// SMACSPerCallGas is the per-call cost of SMACS super-token
	// verification on an equivalent gate (token issuance is free
	// on-chain).
	SMACSPerCallGas uint64 `json:"smacsPerCallGas"`
	// SMACSPerCallUSD converts SMACSPerCallGas.
	SMACSPerCallUSD float64 `json:"smacsPerCallUSD"`
}

// batchSize is how many addresses one addBatch transaction carries.
const batchSize = 200

// Baseline measures the motivating comparison of § II-B/§ II-D: populating
// an on-chain whitelist of N addresses (the paper quotes ≈$300 for 10k
// addresses, and Bluzelle's 9.345 ETH for 7473) versus SMACS, where the
// list lives off-chain and only a constant-cost token verification happens
// on-chain.
func Baseline(sizes []int) (*BaselineResult, error) {
	if len(sizes) == 0 {
		sizes = []int{100, 1000, 7473, 10000}
	}
	res := &BaselineResult{}
	for _, n := range sizes {
		row, err := baselineRun(n)
		if err != nil {
			return nil, fmt.Errorf("baseline N=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, row)
	}

	// SMACS comparison point: one super-token verification per call.
	tb, err := newTestbed()
	if err != nil {
		return nil, err
	}
	r, err := tb.issueAndCall(core.SuperType, false)
	if err != nil {
		return nil, err
	}
	res.SMACSPerCallGas = r.GasUsed
	res.SMACSPerCallUSD = tb.chain.Config().Price.USD(r.GasUsed)
	return res, nil
}

func baselineRun(n int) (BaselineRow, error) {
	chain := newPaperChain()
	owner := wallet.FromSeed("baseline owner", chain)
	member := wallet.FromSeed("baseline member", chain)
	chain.Fund(owner.Address(), ether(1_000_000))
	chain.Fund(member.Address(), ether(1000))

	gateAddr, _, err := chain.Deploy(owner.Address(), contracts.NewWhitelistGate(owner.Address()))
	if err != nil {
		return BaselineRow{}, err
	}

	var populateGas uint64
	remaining := n
	idx := 0
	for remaining > 0 {
		count := batchSize
		if count > remaining {
			count = remaining
		}
		packed := make([]byte, 0, count*types.AddressLength)
		for i := 0; i < count; i++ {
			var a types.Address
			a[0] = 0xb5
			a[1] = byte(idx >> 16)
			a[2] = byte(idx >> 8)
			a[3] = byte(idx)
			idx++
			packed = append(packed, a.Bytes()...)
		}
		if idx-count == 0 {
			// Put the probe member in the first batch so the per-call
			// measurement below passes the check.
			copy(packed[:types.AddressLength], member.Address().Bytes())
		}
		r, err := owner.Call(gateAddr, "addBatch", wallet.CallOpts{}, packed)
		if err != nil {
			return BaselineRow{}, err
		}
		if !r.Status {
			return BaselineRow{}, fmt.Errorf("addBatch reverted: %w", r.Err)
		}
		populateGas += r.GasUsed
		remaining -= count
	}

	r, err := member.Call(gateAddr, "enter", wallet.CallOpts{})
	if err != nil {
		return BaselineRow{}, err
	}
	if !r.Status {
		return BaselineRow{}, fmt.Errorf("enter reverted: %w", r.Err)
	}
	return BaselineRow{
		N:           n,
		PopulateGas: populateGas,
		PopulateUSD: chain.Config().Price.USD(populateGas),
		PerCallGas:  r.GasUsed,
	}, nil
}

// Format renders the baseline comparison.
func (b *BaselineResult) Format() string {
	var s strings.Builder
	fmt.Fprintf(&s, "E7: On-chain whitelist baseline vs SMACS (§ II-B motivation)\n")
	fmt.Fprintf(&s, "  %-10s %16s %14s %14s\n", "N", "populate gas", "populate USD", "per-call gas")
	for _, r := range b.Rows {
		fmt.Fprintf(&s, "  %-10d %16d %14.2f %14d\n", r.N, r.PopulateGas, r.PopulateUSD, r.PerCallGas)
	}
	fmt.Fprintf(&s, "  SMACS: per-call %d gas (%.3f USD), list maintenance off-chain (0 gas)\n",
		b.SMACSPerCallGas, b.SMACSPerCallUSD)
	return s.String()
}
