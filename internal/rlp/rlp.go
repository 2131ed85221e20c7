// Package rlp implements Ethereum's Recursive Length Prefix serialization
// for the subset of shapes the simulated chain needs: byte strings, unsigned
// integers, big integers, and (nested) lists. Transactions are RLP-encoded
// before hashing and signing, exactly as on the real network.
package rlp

import (
	"errors"
	"fmt"
	"math/big"
)

var (
	// ErrTrailingBytes is returned by Decode when input remains after a
	// complete top-level item.
	ErrTrailingBytes = errors.New("rlp: trailing bytes after item")
	// ErrTruncated is returned when the input ends mid-item.
	ErrTruncated = errors.New("rlp: truncated input")
	// ErrNonCanonical is returned for encodings that are valid-looking but
	// not the unique canonical form (e.g., a single byte < 0x80 wrapped in a
	// string header, or length prefixes with leading zeros).
	ErrNonCanonical = errors.New("rlp: non-canonical encoding")
)

// Value is a decoded RLP item: either a byte string or a list of Values.
type Value struct {
	// IsList reports whether the item is a list.
	IsList bool
	// Bytes holds the payload when IsList is false.
	Bytes []byte
	// List holds the elements when IsList is true.
	List []Value
}

// Uint interprets a string item as a canonical big-endian unsigned integer.
func (v Value) Uint() (uint64, error) {
	if v.IsList {
		return 0, errors.New("rlp: expected string item, got list")
	}
	if len(v.Bytes) > 8 {
		return 0, fmt.Errorf("rlp: integer too large (%d bytes)", len(v.Bytes))
	}
	if len(v.Bytes) > 0 && v.Bytes[0] == 0 {
		return 0, ErrNonCanonical
	}
	var u uint64
	for _, b := range v.Bytes {
		u = u<<8 | uint64(b)
	}
	return u, nil
}

// BigInt interprets a string item as a canonical big-endian big integer.
func (v Value) BigInt() (*big.Int, error) {
	if v.IsList {
		return nil, errors.New("rlp: expected string item, got list")
	}
	if len(v.Bytes) > 0 && v.Bytes[0] == 0 {
		return nil, ErrNonCanonical
	}
	return new(big.Int).SetBytes(v.Bytes), nil
}

// AppendBytes appends the RLP encoding of a byte string to dst.
func AppendBytes(dst, s []byte) []byte {
	if len(s) == 1 && s[0] < 0x80 {
		return append(dst, s[0])
	}
	dst = appendLength(dst, 0x80, len(s))
	return append(dst, s...)
}

// AppendString appends the RLP encoding of a string to dst.
func AppendString(dst []byte, s string) []byte {
	if len(s) == 1 && s[0] < 0x80 {
		return append(dst, s[0])
	}
	return append(appendLength(dst, 0x80, len(s)), s...)
}

// AppendUint appends the canonical RLP encoding of an unsigned integer
// (big-endian with no leading zeros; zero encodes as the empty string).
func AppendUint(dst []byte, u uint64) []byte {
	if u == 0 {
		return append(dst, 0x80)
	}
	var buf [8]byte
	n := 0
	for v := u; v > 0; v >>= 8 {
		n++
	}
	for i := 0; i < n; i++ {
		buf[n-1-i] = byte(u >> (8 * i))
	}
	return AppendBytes(dst, buf[:n])
}

// AppendBigInt appends the canonical RLP encoding of a non-negative big
// integer. Negative values are rejected.
func AppendBigInt(dst []byte, v *big.Int) ([]byte, error) {
	if v == nil {
		return AppendUint(dst, 0), nil
	}
	if v.Sign() < 0 {
		return nil, errors.New("rlp: cannot encode negative big integer")
	}
	if v.IsUint64() {
		return AppendUint(dst, v.Uint64()), nil
	}
	n := (v.BitLen() + 7) / 8
	dst = appendLength(dst, 0x80, n)
	dst = append(dst, make([]byte, n)...)
	v.FillBytes(dst[len(dst)-n:])
	return dst, nil
}

func appendLength(dst []byte, offset byte, length int) []byte {
	if length < 56 {
		return append(dst, offset+byte(length))
	}
	var buf [8]byte
	n := 0
	for v := length; v > 0; v >>= 8 {
		n++
	}
	for i := 0; i < n; i++ {
		buf[n-1-i] = byte(length >> (8 * i))
	}
	dst = append(dst, offset+55+byte(n))
	return append(dst, buf[:n]...)
}

// maxListHeader is the longest list header: the prefix byte and an
// eight-byte length.
const maxListHeader = 9

// OpenList starts a list at the end of dst for a caller that appends the
// items itself. It reserves room for the longest header and returns the
// extended buffer and the list's start, which CloseList takes once every
// item is appended.
func OpenList(dst []byte) ([]byte, int) {
	start := len(dst)
	return append(dst, make([]byte, maxListHeader)...), start
}

// CloseList ends the list OpenList started at start: it writes the
// header and moves the items up against it.
func CloseList(dst []byte, start int) []byte {
	payload := len(dst) - start - maxListHeader
	var hdr [maxListHeader]byte
	h := appendLength(hdr[:0], 0xc0, payload)
	copy(dst[start:], h)
	copy(dst[start+len(h):], dst[start+maxListHeader:])
	return dst[:start+len(h)+payload]
}

// EncodeList encodes vs as an RLP list. Each element must be one of
// []byte, string, uint64, int (non-negative), *big.Int, or []any (nested
// list).
func EncodeList(vs ...any) ([]byte, error) {
	return appendList(nil, vs)
}

// appendList appends the RLP list of vs to dst, each (nested) list
// between OpenList and CloseList.
func appendList(dst []byte, vs []any) ([]byte, error) {
	dst, start := OpenList(dst)
	var err error
	for _, v := range vs {
		switch x := v.(type) {
		case []byte:
			dst = AppendBytes(dst, x)
		case string:
			dst = AppendString(dst, x)
		case uint64:
			dst = AppendUint(dst, x)
		case int:
			if x < 0 {
				return nil, errors.New("rlp: cannot encode negative int")
			}
			dst = AppendUint(dst, uint64(x))
		case *big.Int:
			if dst, err = AppendBigInt(dst, x); err != nil {
				return nil, err
			}
		case []any:
			if dst, err = appendList(dst, x); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("rlp: unsupported type %T", v)
		}
	}
	return CloseList(dst, start), nil
}

// Decode parses a single top-level RLP item and requires the input to be
// fully consumed.
func Decode(data []byte) (Value, error) {
	v, rest, err := decodeItem(data)
	if err != nil {
		return Value{}, err
	}
	if len(rest) != 0 {
		return Value{}, ErrTrailingBytes
	}
	return v, nil
}

func decodeItem(data []byte) (Value, []byte, error) {
	if len(data) == 0 {
		return Value{}, nil, ErrTruncated
	}
	prefix := data[0]
	switch {
	case prefix < 0x80: // single byte
		return Value{Bytes: data[:1]}, data[1:], nil
	case prefix <= 0xb7: // short string
		length := int(prefix - 0x80)
		if len(data) < 1+length {
			return Value{}, nil, ErrTruncated
		}
		payload := data[1 : 1+length]
		if length == 1 && payload[0] < 0x80 {
			return Value{}, nil, ErrNonCanonical
		}
		return Value{Bytes: payload}, data[1+length:], nil
	case prefix <= 0xbf: // long string
		payload, rest, err := decodeLong(data, prefix-0xb7)
		if err != nil {
			return Value{}, nil, err
		}
		if len(payload) < 56 {
			return Value{}, nil, ErrNonCanonical
		}
		return Value{Bytes: payload}, rest, nil
	case prefix <= 0xf7: // short list
		length := int(prefix - 0xc0)
		if len(data) < 1+length {
			return Value{}, nil, ErrTruncated
		}
		items, err := decodeListPayload(data[1 : 1+length])
		if err != nil {
			return Value{}, nil, err
		}
		return Value{IsList: true, List: items}, data[1+length:], nil
	default: // long list
		payload, rest, err := decodeLong(data, prefix-0xf7)
		if err != nil {
			return Value{}, nil, err
		}
		if len(payload) < 56 {
			return Value{}, nil, ErrNonCanonical
		}
		items, err := decodeListPayload(payload)
		if err != nil {
			return Value{}, nil, err
		}
		return Value{IsList: true, List: items}, rest, nil
	}
}

func decodeLong(data []byte, lenOfLen byte) (payload, rest []byte, err error) {
	n := int(lenOfLen)
	if len(data) < 1+n {
		return nil, nil, ErrTruncated
	}
	lenBytes := data[1 : 1+n]
	if lenBytes[0] == 0 {
		return nil, nil, ErrNonCanonical
	}
	if n > 4 {
		return nil, nil, fmt.Errorf("rlp: length of length %d too large", n)
	}
	length := 0
	for _, b := range lenBytes {
		length = length<<8 | int(b)
	}
	if len(data) < 1+n+length {
		return nil, nil, ErrTruncated
	}
	return data[1+n : 1+n+length], data[1+n+length:], nil
}

func decodeListPayload(payload []byte) ([]Value, error) {
	var items []Value
	for len(payload) > 0 {
		v, rest, err := decodeItem(payload)
		if err != nil {
			return nil, err
		}
		items = append(items, v)
		payload = rest
	}
	return items, nil
}
