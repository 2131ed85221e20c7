package core

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/keccak"
	"repro/internal/types"
)

// The parts-based ProofDigest and the fmt-based ValueKey the package
// shipped before they hashed and appended in place, kept verbatim
// (renamed) as the oracle of FuzzProofDigestDifferential.

func refProofDigest(r *Request) types.Hash {
	parts := [][]byte{
		[]byte("smacs-token-request-v1"),
		{byte(r.Type)},
		r.Contract[:],
		r.Sender[:],
		[]byte(r.Method),
	}
	for _, a := range r.Args {
		parts = append(parts, []byte(a.Name), []byte{0}, []byte(refValueKey(a.Value)), []byte{0})
	}
	if r.OneTime {
		parts = append(parts, []byte{1})
	} else {
		parts = append(parts, []byte{0})
	}
	return types.Hash(keccak.Sum256Concat(parts...))
}

func refValueKey(v any) string {
	switch x := v.(type) {
	case types.Address:
		return strings.ToLower(x.Hex())
	case *big.Int:
		if x == nil {
			return "0"
		}
		return x.String()
	case uint64:
		return fmt.Sprintf("%d", x)
	case bool:
		if x {
			return "true"
		}
		return "false"
	case []byte:
		return fmt.Sprintf("0x%x", x)
	case string:
		return x
	default:
		return fmt.Sprintf("%v", x)
	}
}

// fuzzArgs decodes b into named arguments of every kind ValueKey
// distinguishes: each takes a kind byte, a name and a value of up to 63
// bytes, so integers reach past 2²⁵⁶ and keys past any stack buffer.
func fuzzArgs(b []byte) []NamedArg {
	var args []NamedArg
	take := func(n int) []byte {
		n = min(n, len(b))
		out := b[:n]
		b = b[n:]
		return out
	}
	for len(b) >= 3 {
		kind, nameLen, valLen := b[0], int(b[1]%8), int(b[2]%64)
		b = b[3:]
		name, raw := string(take(nameLen)), take(valLen)
		var v any
		switch kind % 9 {
		case 0:
			v = types.BytesToAddress(raw)
		case 1:
			v = new(big.Int).SetBytes(raw)
		case 2:
			v = new(big.Int).Neg(new(big.Int).SetBytes(raw))
		case 3:
			v = (*big.Int)(nil)
		case 4:
			var w [8]byte
			copy(w[:], raw)
			v = binary.BigEndian.Uint64(w[:])
		case 5:
			v = len(raw)%2 == 1
		case 6:
			v = append([]byte(nil), raw...)
		case 7:
			v = string(raw)
		default:
			v = int64(len(raw)) - 32 // rendered through %v
		}
		args = append(args, NamedArg{Name: name, Value: v})
	}
	return args
}

// FuzzProofDigestDifferential holds ProofDigest and ValueKey to the
// parts-based oracle on requests of every type, method and argument
// kind.
func FuzzProofDigestDifferential(f *testing.F) {
	f.Add(byte(1), []byte{0xc0, 0x01}, []byte{0xc1}, "", false, []byte{})
	f.Add(byte(2), []byte{0xc0, 0x01}, []byte{0xc1}, "buy(address,uint256)", true, []byte{})
	f.Add(byte(3), []byte{0xc0}, []byte{0xc1}, "buy", false,
		[]byte{0, 9, 20, 'r', 'e', 'c', 'i', 'p', 'i', 'e', 'n', 't', 0xaa, 0xbb, 1, 6, 2, 'a', 'm', 'o', 'u', 'n', 't', 1, 7})
	f.Add(byte(3), []byte{}, []byte{}, strings.Repeat("m", 200), true,
		[]byte{1, 1, 63, 'x', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2, 0, 5, 1, 2, 3, 4, 5, 3, 0, 0, 4, 0, 8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
			5, 0, 1, 0, 6, 0, 3, 0xde, 0xad, 0xbe, 7, 2, 4, 'k', 'V', 'a', 'L', 'u', 8, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, typ byte, contract, sender []byte, method string, oneTime bool, args []byte) {
		r := &Request{Type: TokenType(typ), Contract: types.BytesToAddress(contract), Sender: types.BytesToAddress(sender),
			Method: method, Args: fuzzArgs(args), OneTime: oneTime}
		for _, a := range r.Args {
			if got, want := ValueKey(a.Value), refValueKey(a.Value); got != want {
				t.Fatalf("ValueKey(%#v) = %q, oracle %q", a.Value, got, want)
			}
		}
		if got, want := r.ProofDigest(), refProofDigest(r); got != want {
			t.Fatalf("ProofDigest = %s, oracle %s", got, want)
		}
	})
}
