package core

import (
	"errors"
	"fmt"

	"repro/internal/evm"
	"repro/internal/gas"
	"repro/internal/types"
)

// Bitmap is the cyclically-reused one-time-token bitmap of Alg. 2, backed
// by the contract's gas-charged storage. An n-bit map S plus a window state
// (start, startPtr) tracks the used/unused status of the n one-time tokens
// with consecutive indexes start..start+n-1; end and endPtr are derived.
//
// Storage layout (from BaseSlot):
//
//	slot+0: start     (uint64)
//	slot+1: startPtr  (uint64)
//	slot+2...: the bit words, 256 bits per storage word
//
// Two flaws of the printed Alg. 2 are resolved here: (a) the reset branch as printed forgets to mark index i used —
// we set its bit; (b) the printed seek() picks the smallest j with S[j]=0
// and i−end ≤ j−startPtr, which can shift startPtr further than the logical
// window shift; the stale-bit misalignment then both double-accepts used
// indexes and falsely rejects fresh ones (found by the property test
// TestBitmapAtMostOnceProperty). We implement the minimal-shift advance
// instead: shift by exactly i−end and zero the recycled cells, which
// reproduces the paper's worked example verbatim while restoring the
// at-most-once invariant.
type Bitmap struct {
	bits     uint64
	baseSlot uint64
}

// ErrNoBitmap is returned when a one-time token reaches a verifier without
// a configured bitmap.
var ErrNoBitmap = errors.New("smacs: contract has no one-time-token bitmap")

// NewBitmap creates a bitmap descriptor with n bits rooted at baseSlot of
// the contract's storage. n must be positive.
func NewBitmap(n int, baseSlot uint64) (*Bitmap, error) {
	if n <= 0 {
		return nil, fmt.Errorf("smacs: bitmap size must be positive, got %d", n)
	}
	return &Bitmap{bits: uint64(n), baseSlot: baseSlot}, nil
}

// Bits returns the bitmap capacity n.
func (b *Bitmap) Bits() int { return int(b.bits) }

// StorageWords returns the number of storage words the bitmap occupies
// (window state + bit words). Deployment charges SStoreSet per word; this
// is the one-time cost reported in Table IV.
func (b *Bitmap) StorageWords() int { return 2 + int((b.bits+255)/256) }

// SizeFor returns the bitmap size (bits) required so that no unused,
// non-expired token is ever missed: token_lifetime × max_tx_per_second
// (§ IV-C).
func SizeFor(lifetimeSeconds float64, txPerSecond float64) int {
	n := int(lifetimeSeconds * txPerSecond)
	if n < 1 {
		n = 1
	}
	return n
}

// Use implements the Alg. 2 state update for a token with the given index:
// it returns nil and marks the token used when the index is fresh, and
// ErrTokenUsed when the token was already used or missed. All storage
// traffic is charged to the bitmap gas category of the call.
func (b *Bitmap) Use(c *evm.Call, index int64) error {
	if index < 0 {
		return fmt.Errorf("%w: negative index", ErrMalformedToken)
	}
	i := uint64(index)
	n := b.bits

	start, err := c.LoadUint(gas.CatBitmap, evm.SlotN(b.baseSlot))
	if err != nil {
		return err
	}
	startPtr, err := c.LoadUint(gas.CatBitmap, evm.SlotN(b.baseSlot+1))
	if err != nil {
		return err
	}
	end := start + n - 1

	switch {
	case i < start:
		return fmt.Errorf("%w: index %d below window start %d", ErrTokenUsed, i, start)

	case i <= end:
		t := (startPtr + (i - start)) % n
		set, err := b.getBit(c, t)
		if err != nil {
			return err
		}
		if set {
			return fmt.Errorf("%w: index %d", ErrTokenUsed, i)
		}
		return b.setBit(c, t)

	case i <= end+n:
		// Advance the window by exactly Δ = i−end positions: the Δ oldest
		// cells are recycled (zeroed) to represent the Δ newest indexes,
		// then the bit of index i (the new window end) is set.
		shift := i - end
		if err := b.clearRange(c, startPtr, shift); err != nil {
			return err
		}
		newStartPtr := (startPtr + shift) % n
		newStart := i - n + 1
		if err := c.StoreUint(gas.CatBitmap, evm.SlotN(b.baseSlot), newStart); err != nil {
			return err
		}
		if err := c.StoreUint(gas.CatBitmap, evm.SlotN(b.baseSlot+1), newStartPtr); err != nil {
			return err
		}
		return b.setBit(c, (newStartPtr+n-1)%n)

	default:
		// i > end+n: reset the whole window.
		return b.reset(c, i, n)
	}
}

// reset implements Alg. 2's reset branch: clear all cells and restart the
// window at [i, i+n-1], marking index i used (the fix noted above).
func (b *Bitmap) reset(c *evm.Call, i, n uint64) error {
	words := (n + 255) / 256
	for w := uint64(0); w < words; w++ {
		slot := evm.SlotN(b.baseSlot + 2 + w)
		word, err := c.LoadAs(gas.CatBitmap, slot)
		if err != nil {
			return err
		}
		if !word.IsZero() {
			if err := c.StoreAs(gas.CatBitmap, slot, types.Hash{}); err != nil {
				return err
			}
		}
	}
	if err := c.StoreUint(gas.CatBitmap, evm.SlotN(b.baseSlot), i); err != nil {
		return err
	}
	if err := c.StoreUint(gas.CatBitmap, evm.SlotN(b.baseSlot+1), 0); err != nil {
		return err
	}
	return b.setBit(c, 0)
}

// clearRange zeroes count cells starting at position from (mod n), batching
// storage traffic per 256-bit word.
func (b *Bitmap) clearRange(c *evm.Call, from, count uint64) error {
	n := b.bits
	for count > 0 {
		t := from % n
		w := t / 256
		bitStart := t % 256
		span := count
		if left := 256 - bitStart; span > left {
			span = left
		}
		if left := n - t; span > left {
			span = left
		}
		slot := evm.SlotN(b.baseSlot + 2 + w)
		word, err := c.LoadAs(gas.CatBitmap, slot)
		if err != nil {
			return err
		}
		cleared := word
		for k := uint64(0); k < span; k++ {
			bit := bitStart + k
			cleared[bit/8] &^= 1 << (bit % 8)
		}
		if cleared != word {
			if err := c.StoreAs(gas.CatBitmap, slot, cleared); err != nil {
				return err
			}
		}
		from += span
		count -= span
	}
	return nil
}

func (b *Bitmap) getBit(c *evm.Call, t uint64) (bool, error) {
	word, err := c.LoadAs(gas.CatBitmap, evm.SlotN(b.baseSlot+2+t/256))
	if err != nil {
		return false, err
	}
	return bitOf(word, t%256), nil
}

func (b *Bitmap) setBit(c *evm.Call, t uint64) error {
	slot := evm.SlotN(b.baseSlot + 2 + t/256)
	word, err := c.LoadAs(gas.CatBitmap, slot)
	if err != nil {
		return err
	}
	word[(t%256)/8] |= 1 << ((t % 256) % 8)
	return c.StoreAs(gas.CatBitmap, slot, word)
}

func bitOf(word types.Hash, bit uint64) bool {
	return word[bit/8]&(1<<(bit%8)) != 0
}
