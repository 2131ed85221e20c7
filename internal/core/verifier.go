package core

import (
	"fmt"

	"repro/internal/evm"
	"repro/internal/gas"
	"repro/internal/types"
)

// Calibrated Solidity-emulation gas constants. The raw gas schedule prices
// only the primitive operations (ecrecover precompile, KECCAK256, SLOAD/
// SSTORE); the paper's Solidity verifier additionally pays heavily for
// bytes/string handling in EVM memory. These constants reproduce that
// overhead so the cost *structure* of Tables II/III holds (verification
// dominates; argument tokens ≈ 3× super/method verification; parse cost
// linear in token-array length). They are back-derived from the paper's own
// Table II/III measurements: TestVerifyGasMatchesPaperTableII pins the
// super (108,282) and method (115,108) Verify cells exactly, and the other
// cells follow from the same constants.
const (
	// GasVerifyBase covers token extraction from calldata, signing-data
	// reconstruction, and the ecrecover call wrapper.
	GasVerifyBase uint64 = 105_240
	// GasVerifySig covers msg.sig handling for method/argument tokens.
	GasVerifySig uint64 = 6_820
	// GasVerifyDataByte covers per-byte msg.data processing for argument
	// tokens (hex string expansion and concatenation in Solidity).
	GasVerifyDataByte uint64 = 1_095
	// GasParseEntry is charged per token-array entry scanned when a
	// transaction carries multiple tokens (§ IV-D / Tab. III).
	GasParseEntry uint64 = 5_662
	// GasMiscCheck covers the expiry and one-time-property branch checks.
	GasMiscCheck uint64 = 220
)

// Verifier is the contract-side SMACS library: the logic of Alg. 1 that a
// SMACS-enabled contract runs as a preamble of every public/external
// method. It holds the Token Service address (derived from the preloaded
// public key pkTS) and, optionally, the one-time-token bitmap.
type Verifier struct {
	tsAddr types.Address
	bitmap *Bitmap
}

// NewVerifier creates a verifier trusting tokens signed by the Token
// Service key behind tsAddr. Contracts that accept one-time tokens must
// also configure a bitmap with WithBitmap.
func NewVerifier(tsAddr types.Address) *Verifier {
	return &Verifier{tsAddr: tsAddr}
}

// WithBitmap attaches a one-time-token bitmap (Alg. 2) and returns the
// verifier for chaining.
func (v *Verifier) WithBitmap(b *Bitmap) *Verifier {
	v.bitmap = b
	return v
}

// TSAddress returns the trusted Token Service address.
func (v *Verifier) TSAddress() types.Address { return v.tsAddr }

// Bitmap returns the attached bitmap, if any.
func (v *Verifier) Bitmap() *Bitmap { return v.bitmap }

// Verify implements Alg. 1 against the current call frame:
//
//  1. extract this contract's token from the transaction's token array,
//  2. reject expired tokens,
//  3. for one-time tokens, check-and-mark the bitmap (Alg. 2) — a failed
//     verification reverts the frame, so the mark never survives an
//     invalid transaction,
//  4. rebuild the signed data from the EVM context objects (tx.origin,
//     address(this), msg.sig, msg.data) according to the token type, and
//  5. recover the signer and compare it to the Token Service address.
//
// All work is charged to the verify/bitmap/parse/misc gas categories so
// receipts reproduce the paper's cost breakdown.
func (v *Verifier) Verify(c *evm.Call) error {
	tokens := c.Tokens()
	if len(tokens) == 0 {
		return fmt.Errorf("%w: transaction carries no tokens", ErrNoToken)
	}
	raw, scanned, err := EntryFor(tokens, c.Self())
	if len(tokens) > 1 {
		// Call-chain transaction: the contract pays to parse the array.
		if gerr := c.Charge(gas.CatParse, GasParseEntry*uint64(scanned)); gerr != nil {
			return gerr
		}
	} else {
		if gerr := c.Charge(gas.CatMisc, GasMiscCheck); gerr != nil {
			return gerr
		}
	}
	if err != nil {
		return err
	}
	tk, err := ParseToken(raw)
	if err != nil {
		return err
	}

	// Expiry check against the block timestamp (Solidity's now).
	if err := c.Charge(gas.CatMisc, GasMiscCheck); err != nil {
		return err
	}
	if c.BlockTime().After(tk.Expire) {
		return fmt.Errorf("%w: at %s, token expired %s", ErrTokenExpired,
			c.BlockTime().UTC().Format("15:04:05"), tk.Expire.UTC().Format("15:04:05"))
	}

	// One-time property (Alg. 2).
	if tk.OneTime() {
		if v.bitmap == nil {
			return ErrNoBitmap
		}
		if err := v.bitmap.Use(c, tk.Index); err != nil {
			return err
		}
	}

	// Signature verification with the Solidity-emulation cost model.
	binding := Binding{
		Origin:   c.Origin(),
		Contract: c.Self(),
		Selector: c.Sig(),
		Data:     c.Data(),
	}
	cost := GasVerifyBase + gas.Ecrecover
	signedLen := 61 // type ‖ expire ‖ index ‖ origin ‖ contract
	switch tk.Type {
	case MethodType:
		cost += GasVerifySig
		signedLen += 4
	case ArgumentType:
		cost += GasVerifySig + GasVerifyDataByte*uint64(len(binding.Data))
		signedLen += 4 + len(binding.Data)
	}
	cost += gas.KeccakGas(signedLen)
	if err := c.Charge(gas.CatVerify, cost); err != nil {
		return err
	}
	return tk.VerifySignature(v.tsAddr, binding)
}
