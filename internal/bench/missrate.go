package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/wallet"
)

// MissRateRow is one bitmap sizing of the § IV-C tradeoff experiment.
type MissRateRow struct {
	// SizeFactor is the bitmap size as a fraction of the paper's sizing
	// rule (lifetime × rate bits).
	SizeFactor float64 `json:"sizeFactor"`
	// Bits is the resulting bitmap size.
	Bits int `json:"bits"`
	// Used is how many one-time tokens were accepted.
	Used int `json:"used"`
	// Missed is how many fresh, non-expired tokens were rejected because
	// the window had already advanced past their index.
	Missed int `json:"missed"`
	// MissRate is Missed / (Used + Missed).
	MissRate float64 `json:"missRate"`
}

// MissRateResult quantifies § IV-C's "trade-off between the size of the
// bitmap and the miss rate": the paper states the sizing rule
// (lifetime × max_tx_per_second bits suffices) without measuring the
// under-provisioned regime; this experiment fills that in.
type MissRateResult struct {
	// Tokens is the number of one-time tokens in the workload.
	Tokens int `json:"tokens"`
	// RatePerSec and LifetimeSec parameterize the workload.
	RatePerSec  float64       `json:"ratePerSec"`
	LifetimeSec float64       `json:"lifetimeSec"`
	Rows        []MissRateRow `json:"rows"`
}

// MissRate replays a synthetic workload against real storage-backed
// bitmaps of varying size: tokens are issued with consecutive indexes at
// the given rate and each is redeemed after a uniformly random delay within
// the token lifetime, so redemptions arrive out of order. The reference
// size (factor 1.0) is the paper's sizing rule; smaller factors
// under-provision the bitmap and lose tokens.
func MissRate(tokens int, ratePerSec, lifetimeSec float64, factors []float64) (*MissRateResult, error) {
	if tokens <= 0 {
		tokens = 2000
	}
	if len(factors) == 0 {
		factors = []float64{0.1, 0.5, 1.0, 2.0}
	}
	res := &MissRateResult{
		Tokens:      tokens,
		RatePerSec:  ratePerSec,
		LifetimeSec: lifetimeSec,
	}

	// Workload: token i issued at i/rate, redeemed issueTime + U(0,
	// lifetime). Deterministic seed for reproducibility.
	rng := rand.New(rand.NewSource(42))
	workload := make([]redemption, tokens)
	for i := range workload {
		issueAt := float64(i) / ratePerSec
		workload[i] = redemption{
			index: int64(i) + 1,
			at:    issueAt + rng.Float64()*lifetimeSec,
		}
	}
	sort.Slice(workload, func(a, b int) bool { return workload[a].at < workload[b].at })

	reference := core.SizeFor(lifetimeSec, ratePerSec)
	for _, factor := range factors {
		bits := int(float64(reference) * factor)
		if bits < 1 {
			bits = 1
		}
		row, err := missRateRun(bits, workload)
		if err != nil {
			return nil, fmt.Errorf("miss rate factor %.2f: %w", factor, err)
		}
		row.SizeFactor = factor
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// redemption is one token usage event of the miss-rate workload.
type redemption struct {
	index int64
	at    float64
}

func missRateRun(bits int, workload []redemption) (MissRateRow, error) {
	bm, err := core.NewBitmap(bits, 0)
	if err != nil {
		return MissRateRow{}, err
	}
	chain := newPaperChain()
	owner := wallet.FromSeed("missrate owner", chain)
	chain.Fund(owner.Address(), ether(1_000_000))

	c := evm.NewContract("MissRateHarness")
	c.MustAddMethod(evm.Method{
		Name:       "use",
		Params:     []any{uint64(0)},
		Visibility: evm.Public,
		Handler: func(call *evm.Call) ([]any, error) {
			idx, _ := call.Arg(0).(uint64)
			return nil, bm.Use(call, int64(idx))
		},
	})
	addr, _, err := chain.Deploy(owner.Address(), c)
	if err != nil {
		return MissRateRow{}, err
	}

	row := MissRateRow{Bits: bits}
	for _, r := range workload {
		receipt, err := owner.Call(addr, "use", wallet.CallOpts{}, uint64(r.index))
		if err != nil {
			return MissRateRow{}, err
		}
		switch {
		case receipt.Status:
			row.Used++
		case errors.Is(receipt.Err, core.ErrTokenUsed):
			row.Missed++
		default:
			return MissRateRow{}, fmt.Errorf("unexpected failure: %w", receipt.Err)
		}
	}
	total := row.Used + row.Missed
	if total > 0 {
		row.MissRate = float64(row.Missed) / float64(total)
	}
	return row, nil
}

// Format renders the tradeoff table.
func (m *MissRateResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§ IV-C tradeoff: bitmap size vs token-miss rate (%d tokens, %.3g tx/s, %.3gs lifetime)\n",
		m.Tokens, m.RatePerSec, m.LifetimeSec)
	fmt.Fprintf(&b, "  %-12s %10s %10s %10s %10s\n", "size factor", "bits", "used", "missed", "miss rate")
	for _, r := range m.Rows {
		fmt.Fprintf(&b, "  %-12.2f %10d %10d %10d %9.2f%%\n",
			r.SizeFactor, r.Bits, r.Used, r.Missed, 100*r.MissRate)
	}
	fmt.Fprintf(&b, "  (the paper's sizing rule is factor 1.00: lifetime × max tx/s bits)\n")
	return b.String()
}
