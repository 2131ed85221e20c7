// Package abi implements the subset of Ethereum's contract ABI that the
// simulated chain uses: 4-byte method selectors derived from canonical
// signatures, and head/tail encoding of arguments into 32-byte words.
//
// Supported Go ↔ Solidity type mappings:
//
//	types.Address → address
//	*big.Int      → uint256
//	uint64        → uint256
//	bool          → bool
//	[]byte        → bytes
//	string        → string
//	[][]byte      → bytes[]   (used for SMACS token arrays)
package abi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"slices"

	"repro/internal/keccak"
	"repro/internal/types"
)

// SelectorLength is the byte length of a method selector.
const SelectorLength = 4

// Selector is the first four bytes of the Keccak-256 hash of a canonical
// method signature; Ethereum's msg.sig.
type Selector [SelectorLength]byte

// Hex returns the 0x-prefixed hex form of the selector.
func (s Selector) Hex() string { return fmt.Sprintf("0x%x", s[:]) }

var (
	// ErrUnsupportedType is returned when a Go value has no ABI mapping.
	ErrUnsupportedType = errors.New("abi: unsupported type")
	// ErrBadData is returned when decoding malformed ABI data.
	ErrBadData = errors.New("abi: malformed data")
)

// SelectorFor computes the selector of a canonical signature such as
// "transfer(address,uint256)".
func SelectorFor(signature string) Selector {
	h := keccak.Sum256([]byte(signature))
	var s Selector
	copy(s[:], h[:SelectorLength])
	return s
}

// TypeName returns the canonical Solidity type name for a Go value.
func TypeName(v any) (string, error) {
	name, ok := typeName(v)
	if !ok {
		return "", unsupported(v)
	}
	return name, nil
}

func typeName(v any) (string, bool) {
	switch v.(type) {
	case types.Address:
		return "address", true
	case *big.Int, uint64:
		return "uint256", true
	case bool:
		return "bool", true
	case []byte:
		return "bytes", true
	case string:
		return "string", true
	case [][]byte:
		return "bytes[]", true
	default:
		return "", false
	}
}

// unsupported is the ErrUnsupportedType error for v. It names v's type
// through reflect.TypeOf, as %T does, without handing v itself to fmt:
// that would make every encoded argument escape to the heap.
func unsupported(v any) error {
	name := "<nil>"
	if v != nil {
		name = reflect.TypeOf(v).String()
	}
	return fmt.Errorf("%w: %s", ErrUnsupportedType, name)
}

// Signature builds the canonical signature string for a method name and a
// set of argument values, e.g. Signature("transfer", addr, amount) =
// "transfer(address,uint256)".
func Signature(method string, args ...any) (string, error) {
	sig, err := appendSignature(nil, method, args)
	return string(sig), err
}

// appendSignature appends the canonical signature of method and args to
// dst.
func appendSignature(dst []byte, method string, args []any) ([]byte, error) {
	dst = append(append(dst, method...), '(')
	for i, a := range args {
		name, ok := typeName(a)
		if !ok {
			return nil, fmt.Errorf("argument %d: %w", i, unsupported(a))
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, name...)
	}
	return append(dst, ')'), nil
}

// Encode ABI-encodes the arguments using head/tail encoding.
func Encode(args ...any) ([]byte, error) {
	return AppendEncode(nil, args...)
}

// AppendEncode appends the ABI encoding of args to dst, growing it at
// most once, and returns the extended buffer. On error dst is not
// returned.
func AppendEncode(dst []byte, args ...any) ([]byte, error) {
	n, err := encodedLen(args)
	if err != nil {
		return nil, err
	}
	return appendEncoded(slices.Grow(dst, n), args)
}

// EncodedLen returns len(Encode(args...)) without encoding, for
// arguments Encode accepts.
func EncodedLen(args ...any) int {
	n, _ := encodedLen(args)
	return n
}

// Pack builds calldata for a method: selector ‖ encoded arguments. The
// signature is derived from the method name and the argument types.
func Pack(method string, args ...any) ([]byte, error) {
	return AppendPack(nil, method, args...)
}

// AppendPack appends Pack(method, args...) to dst, growing it at most
// once, and returns the extended buffer. On error dst is not returned.
func AppendPack(dst []byte, method string, args ...any) ([]byte, error) {
	sel, err := SelectorOf(method, args...)
	if err != nil {
		return nil, err
	}
	n, err := encodedLen(args)
	if err != nil {
		return nil, err
	}
	dst = append(slices.Grow(dst, SelectorLength+n), sel[:]...)
	return appendEncoded(dst, args)
}

// SelectorOf is SelectorFor(Signature(method, args...)), with the
// signature built on the stack rather than as a string.
func SelectorOf(method string, args ...any) (Selector, error) {
	var buf [128]byte
	sig, err := appendSignature(buf[:0], method, args)
	if err != nil {
		return Selector{}, err
	}
	h := keccak.Sum256(sig)
	return Selector(h[:SelectorLength]), nil
}

// encodedLen is the byte length of the encoding of args: one head word
// each, plus the tails of the dynamic ones.
func encodedLen(args []any) (int, error) {
	n := 32 * len(args)
	for _, a := range args {
		switch v := a.(type) {
		case types.Address, *big.Int, uint64, bool:
		case []byte:
			n += bytesLen(len(v))
		case string:
			n += bytesLen(len(v))
		case [][]byte:
			n += bytesArrayLen(v)
		default:
			return 0, unsupported(a)
		}
	}
	return n, nil
}

// bytesLen is the encoded length of an n-byte bytes or string value: a
// length word and the payload padded to whole words.
func bytesLen(n int) int { return 32 + (n+31)/32*32 }

// bytesArrayLen is the encoded length of a bytes[] value: a length word,
// one offset word per element, and the elements.
func bytesArrayLen(arr [][]byte) int {
	n := 32 + 32*len(arr)
	for _, el := range arr {
		n += bytesLen(len(el))
	}
	return n
}

// appendEncoded appends the head/tail encoding of args, whose types
// encodedLen has checked, to dst. The head words are reserved zeroed and
// filled in place; the tails are appended behind them.
func appendEncoded(dst []byte, args []any) ([]byte, error) {
	base := len(dst)
	dst = append(dst, make([]byte, 32*len(args))...)
	for i, a := range args {
		w := dst[base+32*i : base+32*i+32]
		switch v := a.(type) {
		case types.Address:
			copy(w[32-types.AddressLength:], v[:])
		case *big.Int:
			if v == nil {
				continue
			}
			if v.Sign() < 0 || v.BitLen() > 256 {
				return nil, fmt.Errorf("abi: argument %d out of uint256 range", i)
			}
			v.FillBytes(w)
		case uint64:
			binary.BigEndian.PutUint64(w[24:], v)
		case bool:
			if v {
				w[31] = 1
			}
		case []byte:
			binary.BigEndian.PutUint64(w[24:], uint64(len(dst)-base))
			dst = appendBytes(dst, v)
		case string:
			binary.BigEndian.PutUint64(w[24:], uint64(len(dst)-base))
			dst = appendBytes(dst, v)
		case [][]byte:
			binary.BigEndian.PutUint64(w[24:], uint64(len(dst)-base))
			dst = appendBytesArray(dst, v)
		}
	}
	return dst, nil
}

// Decode decodes ABI data into values shaped like protos; each proto gives
// the expected type of the corresponding argument (its value is ignored).
func Decode(data []byte, protos ...any) ([]any, error) {
	out := make([]any, len(protos))
	for i, p := range protos {
		headOff := 32 * i
		word, err := wordAt(data, headOff)
		if err != nil {
			return nil, err
		}
		switch p.(type) {
		case types.Address:
			out[i] = types.BytesToAddress(word)
		case *big.Int:
			out[i] = new(big.Int).SetBytes(word)
		case uint64:
			v, ok := wordUint64(word)
			if !ok {
				return nil, fmt.Errorf("%w: value overflows uint64", ErrBadData)
			}
			out[i] = v
		case bool:
			out[i] = word[31] != 0
		case []byte:
			b, err := decodeBytesAt(data, word)
			if err != nil {
				return nil, err
			}
			out[i] = b
		case string:
			b, err := decodeBytesAt(data, word)
			if err != nil {
				return nil, err
			}
			out[i] = string(b)
		case [][]byte:
			arr, err := decodeBytesArrayAt(data, word)
			if err != nil {
				return nil, err
			}
			out[i] = arr
		default:
			return nil, fmt.Errorf("%w: %T", ErrUnsupportedType, p)
		}
	}
	return out, nil
}

// zeroWord supplies the zero padding of words and payload tails.
var zeroWord [32]byte

// appendUintWord appends v as one big-endian 32-byte word.
func appendUintWord(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, zeroWord[:24]...), v)
}

// appendBytes appends a bytes or string value: its length word, then the
// payload zero-padded to whole words.
func appendBytes[T []byte | string](dst []byte, b T) []byte {
	dst = append(appendUintWord(dst, uint64(len(b))), b...)
	if pad := len(b) % 32; pad != 0 {
		dst = append(dst, zeroWord[pad:]...)
	}
	return dst
}

// appendBytesArray appends a bytes[] value: its length word, one offset
// word per element (relative to the first of them), then the elements.
func appendBytesArray(dst []byte, arr [][]byte) []byte {
	dst = appendUintWord(dst, uint64(len(arr)))
	base := len(dst)
	dst = append(dst, make([]byte, 32*len(arr))...)
	for i, el := range arr {
		binary.BigEndian.PutUint64(dst[base+32*i+24:], uint64(len(dst)-base))
		dst = appendBytes(dst, el)
	}
	return dst
}

func wordAt(data []byte, off int) ([]byte, error) {
	if off < 0 || off+32 > len(data) {
		return nil, fmt.Errorf("%w: word at offset %d out of bounds (%d bytes)", ErrBadData, off, len(data))
	}
	return data[off : off+32], nil
}

// wordUint64 reads a 32-byte word as an integer, reporting whether it
// fits in 64 bits (its high 24 bytes are zero).
func wordUint64(word []byte) (uint64, bool) {
	for _, b := range word[:24] {
		if b != 0 {
			return 0, false
		}
	}
	return binary.BigEndian.Uint64(word[24:]), true
}

func offsetFromWord(word []byte) (int, error) {
	v, ok := wordUint64(word)
	if !ok || v > math.MaxInt64 {
		return 0, fmt.Errorf("%w: invalid offset", ErrBadData)
	}
	return int(v), nil
}

func decodeBytesAt(data, offsetWord []byte) ([]byte, error) {
	off, err := offsetFromWord(offsetWord)
	if err != nil {
		return nil, err
	}
	return bytesAt(data, off)
}

// bytesAt decodes the bytes value whose length word sits at offset off.
func bytesAt(data []byte, off int) ([]byte, error) {
	lenWord, err := wordAt(data, off)
	if err != nil {
		return nil, err
	}
	n, err := offsetFromWord(lenWord)
	if err != nil {
		return nil, err
	}
	if off+32+n > len(data) {
		return nil, fmt.Errorf("%w: bytes payload out of bounds", ErrBadData)
	}
	out := make([]byte, n)
	copy(out, data[off+32:off+32+n])
	return out, nil
}

func decodeBytesArrayAt(data, offsetWord []byte) ([][]byte, error) {
	off, err := offsetFromWord(offsetWord)
	if err != nil {
		return nil, err
	}
	lenWord, err := wordAt(data, off)
	if err != nil {
		return nil, err
	}
	n, err := offsetFromWord(lenWord)
	if err != nil {
		return nil, err
	}
	if n > (len(data)-off)/32 {
		return nil, fmt.Errorf("%w: array length %d out of bounds", ErrBadData, n)
	}
	base := off + 32
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		elOffWord, err := wordAt(data, base+32*i)
		if err != nil {
			return nil, err
		}
		elOff, err := offsetFromWord(elOffWord)
		if err != nil {
			return nil, err
		}
		el, err := bytesAt(data[base:], elOff)
		if err != nil {
			return nil, err
		}
		out[i] = el
	}
	return out, nil
}
