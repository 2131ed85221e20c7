// Package types provides the small shared value types of the simulated
// Ethereum substrate: 20-byte account addresses, 32-byte hashes, and the
// hex encoding helpers used across the repository.
package types

import (
	"encoding/hex"
	"fmt"
	"strings"
)

const (
	// AddressLength is the byte length of an Ethereum account address.
	AddressLength = 20
	// HashLength is the byte length of a Keccak-256 digest.
	HashLength = 32
)

// Address is a 20-byte Ethereum account or contract address.
type Address [AddressLength]byte

// Hash is a 32-byte Keccak-256 digest.
type Hash [HashLength]byte

// ZeroAddress is the all-zero address. It is used as the "no address"
// sentinel (e.g., the recipient of a contract-creation transaction).
var ZeroAddress Address

// BytesToAddress converts b to an Address, left-padding or truncating on the
// left so that the low-order 20 bytes of b are kept (Ethereum convention).
func BytesToAddress(b []byte) Address {
	var a Address
	if len(b) > AddressLength {
		b = b[len(b)-AddressLength:]
	}
	copy(a[AddressLength-len(b):], b)
	return a
}

// BytesToHash converts b to a Hash, left-padding or truncating on the left.
func BytesToHash(b []byte) Hash {
	var h Hash
	if len(b) > HashLength {
		b = b[len(b)-HashLength:]
	}
	copy(h[HashLength-len(b):], b)
	return h
}

// HexToAddress parses a hex string (with or without a 0x prefix) into an
// Address. It returns an error if the string is not valid hex or is longer
// than 20 bytes.
func HexToAddress(s string) (Address, error) {
	var a Address
	if err := parseHex(a[:], s); err != nil {
		return Address{}, fmt.Errorf("address %q: %w", s, err)
	}
	return a, nil
}

// MustHexToAddress is like HexToAddress but panics on error. It is intended
// for tests and package-level constants only.
func MustHexToAddress(s string) Address {
	a, err := HexToAddress(s)
	if err != nil {
		panic(err)
	}
	return a
}

// HexToHash parses a hex string (with or without a 0x prefix) into a Hash.
func HexToHash(s string) (Hash, error) {
	var h Hash
	if err := parseHex(h[:], s); err != nil {
		return Hash{}, fmt.Errorf("hash %q: %w", s, err)
	}
	return h, nil
}

// parseHex decodes s, with or without a 0x prefix, into the low-order
// bytes of dst, which must be zero and at most HashLength long; an odd
// digit count is read with a leading zero.
func parseHex(dst []byte, s string) error {
	s = strings.TrimPrefix(strings.TrimPrefix(s, "0x"), "0X")
	n := len(s) + len(s)%2
	if n > 2*len(dst) {
		// Too long: a bad digit anywhere is reported before the length.
		if _, err := hex.DecodeString(strings.Repeat("0", len(s)%2) + s); err != nil {
			return err
		}
		return fmt.Errorf("value is %d bytes, want at most %d", n/2, len(dst))
	}
	var digits [2 * HashLength]byte
	if len(s)%2 == 1 {
		digits[0] = '0'
	}
	copy(digits[len(s)%2:], s)
	_, err := hex.Decode(dst[len(dst)-n/2:], digits[:n])
	return err
}

// Bytes returns the address as a fresh byte slice.
func (a Address) Bytes() []byte {
	b := make([]byte, AddressLength)
	copy(b, a[:])
	return b
}

// Hex returns the 0x-prefixed lowercase hex encoding of the address.
func (a Address) Hex() string {
	var b [2 + 2*AddressLength]byte
	return string(hex.AppendEncode(append(b[:0], "0x"...), a[:]))
}

// String implements fmt.Stringer.
func (a Address) String() string { return a.Hex() }

// IsZero reports whether the address is the all-zero address.
func (a Address) IsZero() bool { return a == ZeroAddress }

// Bytes returns the hash as a fresh byte slice.
func (h Hash) Bytes() []byte {
	b := make([]byte, HashLength)
	copy(b, h[:])
	return b
}

// Hex returns the 0x-prefixed lowercase hex encoding of the hash.
func (h Hash) Hex() string {
	var b [2 + 2*HashLength]byte
	return string(hex.AppendEncode(append(b[:0], "0x"...), h[:]))
}

// String implements fmt.Stringer.
func (h Hash) String() string { return h.Hex() }

// IsZero reports whether the hash is all zero.
func (h Hash) IsZero() bool { return h == Hash{} }
