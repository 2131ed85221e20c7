package abi

import (
	"bytes"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/types"
)

// The word-at-a-time encoder the append encoders replaced. Every helper
// builds a fresh slice; the differential tests and FuzzEncodeDifferential
// hold Encode and Pack byte-for-byte to it.

// refEncode is the pre-append Encode, kept verbatim as the differential
// oracle of the shipped encoder: it ABI-encodes the arguments using
// head/tail encoding.
func refEncode(args ...any) ([]byte, error) {
	headSize := 0
	for _, a := range args {
		if _, err := TypeName(a); err != nil {
			return nil, err
		}
		headSize += 32
	}
	head := make([]byte, 0, headSize)
	var tail []byte
	for i, a := range args {
		switch v := a.(type) {
		case types.Address:
			head = append(head, leftPad(v.Bytes())...)
		case *big.Int:
			if v == nil {
				v = new(big.Int)
			}
			if v.Sign() < 0 || v.BitLen() > 256 {
				return nil, fmt.Errorf("abi: argument %d out of uint256 range", i)
			}
			var w [32]byte
			v.FillBytes(w[:])
			head = append(head, w[:]...)
		case uint64:
			var w [32]byte
			new(big.Int).SetUint64(v).FillBytes(w[:])
			head = append(head, w[:]...)
		case bool:
			var w [32]byte
			if v {
				w[31] = 1
			}
			head = append(head, w[:]...)
		case []byte:
			head = append(head, encodeUintWord(uint64(headSize+len(tail)))...)
			tail = append(tail, encodeBytes(v)...)
		case string:
			head = append(head, encodeUintWord(uint64(headSize+len(tail)))...)
			tail = append(tail, encodeBytes([]byte(v))...)
		case [][]byte:
			head = append(head, encodeUintWord(uint64(headSize+len(tail)))...)
			tail = append(tail, encodeBytesArray(v)...)
		}
	}
	return append(head, tail...), nil
}

// refPack is the pre-append Pack, kept verbatim as the differential
// oracle of the shipped encoder: it builds calldata for a method,
// selector ‖ encoded arguments, deriving the signature from the method
// name and the argument types.
func refPack(method string, args ...any) ([]byte, error) {
	sig, err := Signature(method, args...)
	if err != nil {
		return nil, err
	}
	sel := SelectorFor(sig)
	body, err := refEncode(args...)
	if err != nil {
		return nil, err
	}
	return append(sel[:], body...), nil
}

func encodeUintWord(v uint64) []byte {
	var w [32]byte
	new(big.Int).SetUint64(v).FillBytes(w[:])
	return w[:]
}

func leftPad(b []byte) []byte {
	w := make([]byte, 32)
	copy(w[32-len(b):], b)
	return w
}

func encodeBytes(b []byte) []byte {
	out := encodeUintWord(uint64(len(b)))
	out = append(out, b...)
	if pad := len(b) % 32; pad != 0 {
		out = append(out, make([]byte, 32-pad)...)
	}
	return out
}

func encodeBytesArray(arr [][]byte) []byte {
	out := encodeUintWord(uint64(len(arr)))
	headSize := 32 * len(arr)
	var tail []byte
	for _, el := range arr {
		out = append(out, encodeUintWord(uint64(headSize+len(tail)))...)
		tail = append(tail, encodeBytes(el)...)
	}
	return append(out, tail...)
}

// fuzzArgs decodes an argument list of arbitrary shape from data: a tag
// byte picks each argument's type, the bytes after it its value.
func fuzzArgs(data []byte) []any {
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	next := func() byte {
		if b := take(1); len(b) == 1 {
			return b[0]
		}
		return 0
	}
	var args []any
	for len(data) > 0 && len(args) < 12 {
		tag := next()
		switch tag % 9 {
		case 0:
			args = append(args, types.BytesToAddress(take(20)))
		case 1:
			v := new(big.Int).SetBytes(take(int(next() % 40)))
			if tag&0x80 != 0 {
				v.Neg(v)
			}
			args = append(args, v)
		case 2:
			args = append(args, (*big.Int)(nil))
		case 3:
			var u uint64
			for _, b := range take(8) {
				u = u<<8 | uint64(b)
			}
			args = append(args, u)
		case 4:
			args = append(args, tag&0x80 != 0)
		case 5:
			args = append(args, append([]byte(nil), take(int(next()))...))
		case 6:
			args = append(args, string(take(int(next()))))
		case 7:
			arr := make([][]byte, next()%5)
			for i := range arr {
				arr[i] = take(int(next() % 80))
			}
			args = append(args, arr)
		case 8:
			if tag&0x80 != 0 {
				args = append(args, float64(tag))
			} else {
				args = append(args, [][]byte(nil))
			}
		}
	}
	return args
}

// checkEncodeDifferential holds Encode, AppendEncode, EncodedLen and Pack
// to the oracle on one argument list: same bytes, same error text.
func checkEncodeDifferential(t *testing.T, method string, args []any) {
	t.Helper()
	want, wantErr := refEncode(args...)
	got, err := Encode(args...)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("Encode(%v) = %x, %v; oracle %x, %v", args, got, err, want, wantErr)
	}
	if wantErr == nil && EncodedLen(args...) != len(want) {
		t.Fatalf("EncodedLen(%v) = %d, want %d", args, EncodedLen(args...), len(want))
	}
	prefix := []byte("prefix")
	app, err := AppendEncode(prefix[:len(prefix):len(prefix)], args...)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && !bytes.Equal(app, append(prefix, want...))) {
		t.Fatalf("AppendEncode(%v) = %x, %v; want prefix ‖ %x, %v", args, app, err, want, wantErr)
	}
	wantPack, wantErr := refPack(method, args...)
	gotPack, err := Pack(method, args...)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(gotPack, wantPack) {
		t.Fatalf("Pack(%q, %v) = %x, %v; oracle %x, %v", method, args, gotPack, err, wantPack, wantErr)
	}
}

func TestEncodeMatchesOracle(t *testing.T) {
	huge := new(big.Int).Lsh(big.NewInt(1), 256)
	for _, args := range [][]any{
		{},
		{types.Address{0xaa}, big.NewInt(7)},
		{uint64(1 << 63), true, false, (*big.Int)(nil)},
		{[]byte{}, "", [][]byte{}, [][]byte(nil), []byte(nil)},
		{[]byte("exactly thirty-two bytes long!!!"), "x", [][]byte{{1}, {}, bytes.Repeat([]byte{2}, 65)}},
		{huge},
		{big.NewInt(-1)},
		{3.5},
		{nil},
		{uint64(0), 3.5, big.NewInt(-1)},
		{strings.Repeat("m", 200), [][]byte{bytes.Repeat([]byte{9}, 31), bytes.Repeat([]byte{9}, 33)}},
	} {
		checkEncodeDifferential(t, "method", args)
	}
	checkEncodeDifferential(t, strings.Repeat("longMethodName", 12), []any{uint64(1), "two", [][]byte{{3}}})
}

func FuzzEncodeDifferential(f *testing.F) {
	f.Add("transfer", []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 1, 3, 5, 6, 7})
	f.Add("buy", []byte{3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 4, 5, 40})
	f.Add("relay", []byte{7, 3, 1, 0xaa, 0, 70, 6, 2, 'h', 'i'})
	f.Add("", []byte{0x81, 33, 1, 2, 3, 0x88, 2})
	f.Fuzz(func(t *testing.T, method string, data []byte) {
		checkEncodeDifferential(t, method, fuzzArgs(data))
	})
}
