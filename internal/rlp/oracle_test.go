package rlp

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"testing"
)

// The list encoder OpenList/CloseList replaced: it encodes every list
// payload into a fresh buffer, then copies it behind the header. The
// differential tests and FuzzEncodeListDifferential hold EncodeList
// byte-for-byte to it.

// refEncodeList is the pre-append EncodeList, kept verbatim as the
// differential oracle of the shipped encoder: it encodes vs as an RLP list. Each element must be one of
// []byte, string, uint64, int (non-negative), *big.Int, or []any (nested
// list).
func refEncodeList(vs ...any) ([]byte, error) {
	payload, err := encodeItems(vs)
	if err != nil {
		return nil, err
	}
	return refAppendList(nil, payload), nil
}

func encodeItems(vs []any) ([]byte, error) {
	var payload []byte
	var err error
	for _, v := range vs {
		switch x := v.(type) {
		case []byte:
			payload = AppendBytes(payload, x)
		case string:
			payload = AppendString(payload, x)
		case uint64:
			payload = AppendUint(payload, x)
		case int:
			if x < 0 {
				return nil, errors.New("rlp: cannot encode negative int")
			}
			payload = AppendUint(payload, uint64(x))
		case *big.Int:
			payload, err = refAppendBigInt(payload, x)
			if err != nil {
				return nil, err
			}
		case []any:
			inner, err := encodeItems(x)
			if err != nil {
				return nil, err
			}
			payload = refAppendList(payload, inner)
		default:
			return nil, fmt.Errorf("rlp: unsupported type %T", v)
		}
	}
	return payload, nil
}

// refAppendList is the removed AppendList, which only refEncodeList still
// needs: it appends the RLP encoding of a list whose already-encoded
// payload is given by payload.
func refAppendList(dst, payload []byte) []byte {
	dst = appendLength(dst, 0xc0, len(payload))
	return append(dst, payload...)
}

// refAppendBigInt is the pre-append AppendBigInt: it appends the canonical RLP encoding of a non-negative big
// integer. Negative values are rejected.
func refAppendBigInt(dst []byte, v *big.Int) ([]byte, error) {
	if v == nil {
		return AppendUint(dst, 0), nil
	}
	if v.Sign() < 0 {
		return nil, errors.New("rlp: cannot encode negative big integer")
	}
	return AppendBytes(dst, v.Bytes()), nil
}

// fuzzItems decodes a (nested) item list of arbitrary shape from data: a
// tag byte picks each item's type, the bytes after it its value.
func fuzzItems(data *[]byte, depth int) []any {
	take := func(n int) []byte {
		n = min(n, len(*data))
		b := (*data)[:n]
		*data = (*data)[n:]
		return b
	}
	next := func() byte {
		if b := take(1); len(b) == 1 {
			return b[0]
		}
		return 0
	}
	var items []any
	for len(*data) > 0 && len(items) < 16 {
		tag := next()
		switch tag % 8 {
		case 0:
			items = append(items, append([]byte(nil), take(int(next()))...))
		case 1:
			items = append(items, string(take(int(next()%70))))
		case 2:
			var u uint64
			for _, b := range take(int(next() % 9)) {
				u = u<<8 | uint64(b)
			}
			items = append(items, u)
		case 3:
			items = append(items, int(int8(next())))
		case 4:
			v := new(big.Int).SetBytes(take(int(next() % 40)))
			if tag&0x80 != 0 {
				v.Neg(v)
			}
			items = append(items, v)
		case 5:
			items = append(items, (*big.Int)(nil))
		case 6:
			if depth < 4 {
				items = append(items, fuzzItems(data, depth+1))
			}
			if tag&0x80 != 0 {
				return items
			}
		case 7:
			if tag&0x80 != 0 {
				items = append(items, float64(tag))
			} else {
				items = append(items, []any{})
			}
		}
	}
	return items
}

// checkEncodeListDifferential holds EncodeList, and the list appended
// behind a prefix, to the oracle: same bytes, same error text.
func checkEncodeListDifferential(t *testing.T, vs []any) {
	t.Helper()
	want, wantErr := refEncodeList(vs...)
	got, err := EncodeList(vs...)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("EncodeList(%v) = %x, %v; oracle %x, %v", vs, got, err, want, wantErr)
	}
	if wantErr != nil {
		return
	}
	prefix := []byte{0xee, 0xff}
	if got, _ := appendList(prefix[:2:2], vs); !bytes.Equal(got, append(prefix, want...)) {
		t.Fatalf("appendList(%v) = %x, want prefix ‖ %x", vs, got, want)
	}
}

func TestEncodeListMatchesOracle(t *testing.T) {
	long := bytes.Repeat([]byte{0xab}, 70000)
	huge := new(big.Int).Lsh(big.NewInt(1), 300)
	for _, vs := range [][]any{
		{},
		{"cat", "dog"},
		{[]any{}, []any{[]any{}}, []any{[]any{}, []any{[]any{}}}},
		{[]byte{}, []byte{0x7f}, []byte{0x80}, "", "x", uint64(0), uint64(127), uint64(128), uint64(1 << 63), 0, 1024},
		{(*big.Int)(nil), big.NewInt(0), big.NewInt(0x7f), big.NewInt(0x80), new(big.Int).Lsh(big.NewInt(1), 64), huge},
		{bytes.Repeat([]byte{1}, 55)},
		{bytes.Repeat([]byte{1}, 56)},
		{bytes.Repeat([]byte{1}, 54)},
		{long, []any{long, "tail"}},
		{-1},
		{big.NewInt(-1)},
		{uint64(1), 3.5},
		{[]any{"a", []any{-2}}},
		{nil},
	} {
		checkEncodeListDifferential(t, vs)
	}
}

func FuzzEncodeListDifferential(f *testing.F) {
	f.Add([]byte{0, 3, 'c', 'a', 't', 1, 3, 'd', 'o', 'g'})
	f.Add([]byte{6, 6, 0x86, 7, 0x86, 2, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{4, 33, 0xff, 0x84, 2, 1, 2, 3, 0xff, 5})
	f.Add([]byte{0, 60, 1, 2, 3, 0x87})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEncodeListDifferential(t, fuzzItems(&data, 0))
	})
}
