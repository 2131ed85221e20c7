// Package gas defines the Ethereum gas schedule used by the simulated
// chain, a per-transaction gas meter with category accounting (so the
// benchmark harness can reproduce the paper's Verify/Misc/Bitmap/Parse cost
// breakdown), and the gas→USD conversion calibrated to the paper's own
// Table II figures.
package gas

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// Gas schedule constants (Istanbul-era values, matching the paper's 2019/2020
// measurement window closely enough that relative costs are preserved).
const (
	// TxBase is the intrinsic cost of any transaction.
	TxBase uint64 = 21000
	// TxDataZeroByte / TxDataNonZeroByte price calldata bytes.
	TxDataZeroByte    uint64 = 4
	TxDataNonZeroByte uint64 = 16
	// SLoad is the cost of reading one storage word.
	SLoad uint64 = 800
	// SStoreSet is the cost of writing a nonzero value into a zero slot.
	SStoreSet uint64 = 20000
	// SStoreReset is the cost of overwriting a nonzero slot.
	SStoreReset uint64 = 5000
	// KeccakBase / KeccakWord price the KECCAK256 opcode.
	KeccakBase uint64 = 30
	KeccakWord uint64 = 6
	// Ecrecover is the cost of the signature-recovery precompile.
	Ecrecover uint64 = 3000
	// Call is the base cost of a message call; CallValue is the surcharge
	// for transferring value.
	Call      uint64 = 700
	CallValue uint64 = 9000
	// NewAccount is the surcharge for creating a previously empty account.
	NewAccount uint64 = 25000
	// CopyWord prices memory/calldata copies per 32-byte word.
	CopyWord uint64 = 3
	// QuickStep is the generic cost of a cheap arithmetic/logic operation.
	QuickStep uint64 = 3
)

// Category labels a gas charge so receipts can report the same cost
// breakdown as the paper's Table II/III (Verify / Misc / Bitmap / Parse).
type Category string

// Gas accounting categories.
const (
	// CatIntrinsic covers the 21000 base cost plus calldata pricing.
	CatIntrinsic Category = "intrinsic"
	// CatVerify covers token signature verification (Alg. 1).
	CatVerify Category = "verify"
	// CatBitmap covers one-time-token bitmap reads/updates (Alg. 2).
	CatBitmap Category = "bitmap"
	// CatParse covers extracting a contract's token out of a token array
	// in call-chain transactions (§ IV-D).
	CatParse Category = "parse"
	// CatMisc covers everything else the SMACS preamble does (dispatch,
	// calldata handling, expiry checks).
	CatMisc Category = "misc"
	// CatApp covers the application method body itself.
	CatApp Category = "app"
)

// ErrOutOfGas is returned by Meter.Charge when the limit is exhausted.
var ErrOutOfGas = errors.New("gas: out of gas")

// categories are the predefined categories, whose sums a Meter keeps in
// a fixed array.
var categories = [...]Category{CatIntrinsic, CatVerify, CatBitmap, CatParse, CatMisc, CatApp}

// index returns c's position in categories, or -1.
func (c Category) index() int {
	for i, p := range categories {
		if p == c {
			return i
		}
	}
	return -1
}

// Meter tracks gas consumption against a limit, keeping a per-category
// breakdown.
type Meter struct {
	limit uint64
	used  uint64
	sums  [len(categories)]uint64
	// charged has bit i set once categories[i] was charged, even with
	// zero gas: such a category still appears in ByCategory.
	charged uint8
	other   map[Category]uint64 // categories outside the predefined set
}

// NewMeter creates a meter with the given gas limit.
func NewMeter(limit uint64) *Meter {
	return &Meter{limit: limit}
}

func (m *Meter) add(cat Category, amount uint64) {
	if i := cat.index(); i >= 0 {
		m.sums[i] += amount
		m.charged |= 1 << i
		return
	}
	if m.other == nil {
		m.other = make(map[Category]uint64)
	}
	m.other[cat] += amount
}

// Charge consumes amount gas under the given category. It returns
// ErrOutOfGas (wrapped) when the limit would be exceeded; the meter is then
// drained to the limit, mirroring EVM semantics where an out-of-gas
// execution consumes everything.
func (m *Meter) Charge(cat Category, amount uint64) error {
	if m.used+amount > m.limit || m.used+amount < m.used {
		remaining := m.limit - m.used
		m.add(cat, remaining)
		m.used = m.limit
		return fmt.Errorf("%w: need %d, %d remaining", ErrOutOfGas, amount, remaining)
	}
	m.used += amount
	m.add(cat, amount)
	return nil
}

// Used returns the gas consumed so far.
func (m *Meter) Used() uint64 { return m.used }

// Limit returns the meter's gas limit.
func (m *Meter) Limit() uint64 { return m.limit }

// Remaining returns the gas left.
func (m *Meter) Remaining() uint64 { return m.limit - m.used }

// ByCategory returns a copy of the per-category breakdown: every category
// charged so far, zero charges included.
func (m *Meter) ByCategory() map[Category]uint64 {
	out := make(map[Category]uint64, bits.OnesCount8(m.charged)+len(m.other))
	for i, cat := range categories {
		if m.charged&(1<<i) != 0 {
			out[cat] = m.sums[i]
		}
	}
	for cat, v := range m.other {
		out[cat] = v
	}
	return out
}

// CalldataGas prices a calldata payload byte-by-byte (zero bytes are
// cheaper, as on Ethereum).
func CalldataGas(data []byte) uint64 {
	var g uint64
	for _, b := range data {
		if b == 0 {
			g += TxDataZeroByte
		} else {
			g += TxDataNonZeroByte
		}
	}
	return g
}

// KeccakGas prices hashing n bytes with KECCAK256.
func KeccakGas(n int) uint64 {
	words := uint64((n + 31) / 32)
	return KeccakBase + KeccakWord*words
}

// Price converts gas to ether and USD. The defaults are back-derived from
// the paper's own Table II (165957 gas ↦ $0.041), i.e. ≈1.83 gwei/gas at
// ≈$135/ETH in early 2020.
type Price struct {
	// GweiPerGas is the gas price in gwei.
	GweiPerGas float64
	// USDPerETH is the ether exchange rate.
	USDPerETH float64
}

// DefaultPrice is the calibration used throughout the benchmarks.
var DefaultPrice = Price{GweiPerGas: 1.83, USDPerETH: 135}

// USD converts a gas amount to US dollars.
func (p Price) USD(gasUsed uint64) float64 {
	return float64(gasUsed) * p.GweiPerGas * 1e-9 * p.USDPerETH
}

// Wei converts a gas amount to wei.
func (p Price) Wei(gasUsed uint64) *big.Int {
	gwei := new(big.Float).SetFloat64(p.GweiPerGas)
	gwei.Mul(gwei, new(big.Float).SetUint64(gasUsed))
	gwei.Mul(gwei, big.NewFloat(1e9))
	out, _ := gwei.Int(nil)
	return out
}
