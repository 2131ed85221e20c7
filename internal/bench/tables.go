package bench

import (
	"fmt"
	"strings"

	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/gas"
	"repro/internal/transform"
	"repro/internal/types"
	"repro/internal/wallet"
)

// tokenTypes is the presentation order of Tab. II.
var tokenTypes = []core.TokenType{core.SuperType, core.MethodType, core.ArgumentType}

// TableIIResult holds the single-token processing cost of Tab. II.
type TableIIResult struct {
	// Plain and OneTime map token types to their cost breakdowns.
	Plain   map[core.TokenType]CostRow `json:"plain"`
	OneTime map[core.TokenType]CostRow `json:"oneTime"`
	// Price is the calibration used for the USD row.
	Price gas.Price `json:"price"`
}

// TableII measures the gas cost of processing a single token of each type,
// with and without the one-time property (experiment E1). Each
// configuration runs on a fresh testbed so every one-time token pays the
// full cold-bitmap write, as in the paper's per-configuration runs.
func TableII() (*TableIIResult, error) {
	res := &TableIIResult{
		Plain:   make(map[core.TokenType]CostRow, 3),
		OneTime: make(map[core.TokenType]CostRow, 3),
		Price:   gas.DefaultPrice,
	}
	for _, tp := range tokenTypes {
		for _, oneTime := range []bool{false, true} {
			tb, err := newTestbed()
			if err != nil {
				return nil, err
			}
			r, err := tb.issueAndCall(tp, oneTime)
			if err != nil {
				return nil, fmt.Errorf("table II %s (one-time=%t): %w", tp, oneTime, err)
			}
			row := rowFromReceipt(r, res.Price)
			if oneTime {
				res.OneTime[tp] = row
			} else {
				res.Plain[tp] = row
			}
		}
	}
	return res, nil
}

// Format renders the result in the paper's Tab. II layout.
func (t *TableIIResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tab. II: Single token processing gas cost\n")
	section := func(title string, rows map[core.TokenType]CostRow, withBitmap bool) {
		fmt.Fprintf(&b, "  Token type (%s)\n", title)
		fmt.Fprintf(&b, "  %-8s %14s %14s %14s\n", "Cost", "Super", "Method", "Argument")
		line := func(name string, pick func(CostRow) uint64) {
			fmt.Fprintf(&b, "  %-8s", name)
			for _, tp := range tokenTypes {
				row := rows[tp]
				fmt.Fprintf(&b, " %8d (%s)", pick(row), pct(pick(row), row.Total))
			}
			fmt.Fprintln(&b)
		}
		line("Verify", func(r CostRow) uint64 { return r.Verify })
		line("Misc", func(r CostRow) uint64 { return r.Misc })
		if withBitmap {
			line("Bitmap", func(r CostRow) uint64 { return r.Bitmap })
		}
		fmt.Fprintf(&b, "  %-8s", "Total")
		for _, tp := range tokenTypes {
			fmt.Fprintf(&b, " %14d", rows[tp].Total)
		}
		fmt.Fprintln(&b)
		fmt.Fprintf(&b, "  %-8s", "USD")
		for _, tp := range tokenTypes {
			fmt.Fprintf(&b, " %14.3f", rows[tp].USD)
		}
		fmt.Fprintln(&b)
	}
	section("without the one-time property", t.Plain, false)
	section("with the one-time property", t.OneTime, true)
	return b.String()
}

// TableIIIResult holds the call-chain costs of Tab. III.
type TableIIIResult struct {
	// Depths lists the evaluated chain lengths (token counts).
	Depths []int `json:"depths"`
	// Rows maps a depth to the aggregated cost of the transaction.
	Rows map[int]CostRow `json:"rows"`
	// Price is the calibration used for the USD row.
	Price gas.Price `json:"price"`
}

// TableIII measures transactions carrying 1-4 one-time argument tokens
// through call chains of the corresponding depth (experiment E2, Fig. 5's
// topology).
func TableIII() (*TableIIIResult, error) {
	res := &TableIIIResult{Rows: make(map[int]CostRow, 4)}
	for depth := 1; depth <= 4; depth++ {
		row, err := ChainRun(depth, core.ArgumentType, true)
		if err != nil {
			return nil, fmt.Errorf("table III depth %d: %w", depth, err)
		}
		res.Depths = append(res.Depths, depth)
		res.Rows[depth] = row
		res.Price = gas.DefaultPrice
	}
	return res, nil
}

// ChainRun executes one transaction through a SMACS-protected call chain of
// the given depth, with one token per link of the given type, and returns
// the aggregated cost row (shared by Tab. III, Fig. 8, and the root-level
// benchmarks).
func ChainRun(depth int, tp core.TokenType, oneTime bool) (CostRow, error) {
	tb, err := newTestbed()
	if err != nil {
		return CostRow{}, err
	}
	wrap := func(link *evm.Contract) *evm.Contract {
		verifier := core.NewVerifier(tb.service.Address())
		bm, err := core.NewBitmap(benchBitmapBits, 1<<32)
		if err != nil {
			return link
		}
		verifier.WithBitmap(bm)
		return transform.Enable(link, verifier)
	}
	deploy := func(c *evm.Contract) (types.Address, error) {
		addr, _, err := tb.chain.Deploy(tb.owner.Address(), c)
		return addr, err
	}
	addrs, err := contracts.BuildChain(deploy, depth, wrap)
	if err != nil {
		return CostRow{}, err
	}

	// One token per link: link i is invoked as relay(i), so argument
	// tokens bind that exact payload (§ IV-D).
	entries := make([]wallet.TokenEntry, 0, depth)
	for i, addr := range addrs {
		req := &core.Request{
			Type:     tp,
			Contract: addr,
			Sender:   tb.client.Address(),
			OneTime:  oneTime,
		}
		switch tp {
		case core.MethodType:
			req.Method = "relay(uint256,string)"
		case core.ArgumentType:
			req.Method = "relay"
			req.Args = []core.NamedArg{
				{Name: "v", Value: uint64(i)},
				{Name: "note", Value: argNote},
			}
		}
		tk, err := tb.service.Issue(req)
		if err != nil {
			return CostRow{}, fmt.Errorf("issue for link %d: %w", i, err)
		}
		entries = append(entries, wallet.TokenEntry{Contract: addr, Token: tk})
	}

	r, err := tb.client.Call(addrs[0], "relay", wallet.WithTokens(entries...), uint64(0), argNote)
	if err != nil {
		return CostRow{}, err
	}
	if !r.Status {
		return CostRow{}, fmt.Errorf("chain call reverted: %w", r.Err)
	}
	return rowFromReceipt(r, tb.chain.Config().Price), nil
}

// Format renders the result in the paper's Tab. III layout.
func (t *TableIIIResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tab. III: Gas cost for multiple one-time argument tokens\n")
	fmt.Fprintf(&b, "  %-8s", "Cost")
	for _, d := range t.Depths {
		fmt.Fprintf(&b, " %16d", d)
	}
	fmt.Fprintln(&b)
	line := func(name string, pick func(CostRow) uint64) {
		fmt.Fprintf(&b, "  %-8s", name)
		for _, d := range t.Depths {
			row := t.Rows[d]
			v := pick(row)
			if name == "Parse" && v == 0 {
				fmt.Fprintf(&b, " %16s", "–")
				continue
			}
			fmt.Fprintf(&b, " %10d (%s)", v, pct(v, row.Total))
		}
		fmt.Fprintln(&b)
	}
	line("Verify", func(r CostRow) uint64 { return r.Verify })
	line("Misc", func(r CostRow) uint64 { return r.Misc })
	line("Bitmap", func(r CostRow) uint64 { return r.Bitmap })
	line("Parse", func(r CostRow) uint64 { return r.Parse })
	fmt.Fprintf(&b, "  %-8s", "Total")
	for _, d := range t.Depths {
		fmt.Fprintf(&b, " %16d", t.Rows[d].Total)
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "  %-8s", "USD")
	for _, d := range t.Depths {
		fmt.Fprintf(&b, " %16.3f", t.Rows[d].USD)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// TableIVRow is one column of Tab. IV.
type TableIVRow struct {
	// TxPerSec is the assumed peak transaction rate.
	TxPerSec float64 `json:"txPerSec"`
	// Bits is the required bitmap size (lifetime × rate).
	Bits int `json:"bits"`
	// StorageKB is the bitmap size in kilobytes.
	StorageKB float64 `json:"storageKB"`
	// DeployGas is the one-time deployment cost of pre-allocating the
	// bitmap words.
	DeployGas uint64 `json:"deployGas"`
	// USD converts DeployGas.
	USD float64 `json:"usd"`
}

// TableIVResult holds the bitmap storage costs of Tab. IV.
type TableIVResult struct {
	// LifetimeSeconds is the assumed token lifetime (the paper uses 1 h).
	LifetimeSeconds float64      `json:"lifetimeSeconds"`
	Rows            []TableIVRow `json:"rows"`
}

// TableIV sizes the one-time-token bitmap for the paper's three peak
// transaction rates and measures the actual deployment gas of
// pre-allocating it (experiment E3).
func TableIV() (*TableIVResult, error) {
	const lifetime = 3600.0
	res := &TableIVResult{LifetimeSeconds: lifetime}
	for _, rate := range []float64{35, 3.5, 0.35} {
		bits := core.SizeFor(lifetime, rate)
		bm, err := core.NewBitmap(bits, 1<<32)
		if err != nil {
			return nil, err
		}

		chain := newPaperChain()
		owner := wallet.FromSeed("tab4 owner", chain)
		chain.Fund(owner.Address(), ether(1000))
		c := evm.NewContract(fmt.Sprintf("Bitmap%.2gtps", rate))
		c.MustAddMethod(evm.Method{Name: "noop", Visibility: evm.Public,
			Handler: func(*evm.Call) ([]any, error) { return nil, nil }})
		c.SetInitialStorageWords(bm.StorageWords())
		_, receipt, err := chain.Deploy(owner.Address(), c)
		if err != nil {
			return nil, err
		}
		deployGas := receipt.GasByCategory[gas.CatBitmap]
		res.Rows = append(res.Rows, TableIVRow{
			TxPerSec:  rate,
			Bits:      bits,
			StorageKB: float64(bits) / 8 / 1024,
			DeployGas: deployGas,
			USD:       chain.Config().Price.USD(deployGas),
		})
	}
	return res, nil
}

// Format renders the result in the paper's Tab. IV layout.
func (t *TableIVResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tab. IV: Storage cost for the bitmap (one-time, lifetime %.0fs)\n", t.LifetimeSeconds)
	fmt.Fprintf(&b, "  %-12s", "Cost")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, " %12.4g tx/s", r.TxPerSec)
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "  %-12s", "Storage")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, " %12.3f KB", r.StorageKB)
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "  %-12s", "Deployment")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, " %15d", r.DeployGas)
	}
	fmt.Fprintln(&b)
	fmt.Fprintf(&b, "  %-12s", "USD")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, " %15.3f", r.USD)
	}
	fmt.Fprintln(&b)
	return b.String()
}
