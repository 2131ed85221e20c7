// Package tshttp implements the Token Service's HTTPS-enabled web
// interface (Fig. 1): a JSON API through which clients request tokens and
// the owner manages Access Control Rules, plus the matching client. Rule
// state is never exposed to clients — only to the owner — preserving the
// rule privacy property of § VII-A(d).
package tshttp

import (
	"encoding/hex"
	"fmt"
	"math/big"
	"strings"

	"repro/internal/core"
	"repro/internal/types"
)

// WireArg is the JSON form of one named argument. Kind selects the ABI
// type; Value is its string encoding (0x-hex for addresses and bytes,
// decimal for uint256, "true"/"false" for bool, raw text for string).
type WireArg struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Value string `json:"value"`
}

// WireRequest is the JSON form of a token request (Fig. 2 over HTTP).
type WireRequest struct {
	Type     string    `json:"type"` // "super" | "method" | "argument"
	Contract string    `json:"contract"`
	Sender   string    `json:"sender"`
	Method   string    `json:"method,omitempty"`
	Args     []WireArg `json:"args,omitempty"`
	OneTime  bool      `json:"oneTime,omitempty"`
	// Proof is the hex proof of possession (see core.Request.Proof).
	Proof string `json:"proof,omitempty"`
}

// WireToken is the JSON form of an issued token.
type WireToken struct {
	// Token is the hex encoding of the 86-byte token (Fig. 3).
	Token string `json:"token"`
	// Expire is the Unix expiry timestamp, echoed for convenience.
	Expire int64 `json:"expire"`
	// Index is the one-time index, or -1.
	Index int64 `json:"index"`
}

// WireBatchRequest is the JSON body of POST /v1/tokens: N token requests
// submitted in one round-trip.
type WireBatchRequest struct {
	Requests []WireRequest `json:"requests"`
}

// WireBatchResult is one slot of a batch response: exactly one of Token
// and Error is set.
type WireBatchResult struct {
	Token *WireToken `json:"token,omitempty"`
	Error string     `json:"error,omitempty"`
}

// WireBatchResponse answers a batch request with one result per submitted
// request, in order. A rejected request occupies its slot with an error
// instead of failing the whole batch.
type WireBatchResponse struct {
	Results []WireBatchResult `json:"results"`
}

func parseTokenType(s string) (core.TokenType, error) {
	switch strings.ToLower(s) {
	case "super":
		return core.SuperType, nil
	case "method":
		return core.MethodType, nil
	case "argument":
		return core.ArgumentType, nil
	default:
		return 0, fmt.Errorf("unknown token type %q", s)
	}
}

func tokenTypeName(t core.TokenType) string { return t.String() }

// hexString is hex.EncodeToString with one allocation for inputs up to a
// token's length: the digits are built on the stack.
func hexString(b []byte) string {
	var buf [2 * core.TokenLength]byte
	return string(hex.AppendEncode(buf[:0], b))
}

// wireToken is the wire form of an issued token.
func wireToken(tk *core.Token) WireToken {
	return WireToken{Token: hexString(tk.Encode()), Expire: tk.Expire.Unix(), Index: tk.Index}
}

// DecodeArg converts a wire argument into an ABI-encodable Go value.
func DecodeArg(a WireArg) (any, error) {
	switch strings.ToLower(a.Kind) {
	case "address":
		return types.HexToAddress(a.Value)
	case "uint256", "uint":
		v, ok := new(big.Int).SetString(a.Value, 10)
		if !ok || v.Sign() < 0 {
			return nil, fmt.Errorf("argument %q: bad uint256 %q", a.Name, a.Value)
		}
		return v, nil
	case "bool":
		switch strings.ToLower(a.Value) {
		case "true":
			return true, nil
		case "false":
			return false, nil
		}
		return nil, fmt.Errorf("argument %q: bad bool %q", a.Name, a.Value)
	case "bytes":
		s := strings.TrimPrefix(a.Value, "0x")
		b, err := hex.DecodeString(s)
		if err != nil {
			return nil, fmt.Errorf("argument %q: bad bytes: %w", a.Name, err)
		}
		return b, nil
	case "string":
		return a.Value, nil
	default:
		return nil, fmt.Errorf("argument %q: unknown kind %q", a.Name, a.Kind)
	}
}

// EncodeArg converts a Go argument value into wire form.
func EncodeArg(name string, v any) (WireArg, error) {
	switch x := v.(type) {
	case types.Address:
		return WireArg{Name: name, Kind: "address", Value: x.Hex()}, nil
	case *big.Int:
		return WireArg{Name: name, Kind: "uint256", Value: x.String()}, nil
	case uint64:
		return WireArg{Name: name, Kind: "uint256", Value: fmt.Sprintf("%d", x)}, nil
	case bool:
		return WireArg{Name: name, Kind: "bool", Value: fmt.Sprintf("%t", x)}, nil
	case []byte:
		return WireArg{Name: name, Kind: "bytes", Value: fmt.Sprintf("0x%x", x)}, nil
	case string:
		return WireArg{Name: name, Kind: "string", Value: x}, nil
	default:
		return WireArg{}, fmt.Errorf("argument %q: unsupported type %T", name, v)
	}
}

// ToRequest converts a wire request into a core request.
func ToRequest(w *WireRequest) (*core.Request, error) {
	tp, err := parseTokenType(w.Type)
	if err != nil {
		return nil, err
	}
	contract, err := types.HexToAddress(w.Contract)
	if err != nil {
		return nil, fmt.Errorf("contract: %w", err)
	}
	sender, err := types.HexToAddress(w.Sender)
	if err != nil {
		return nil, fmt.Errorf("sender: %w", err)
	}
	req := &core.Request{
		Type:     tp,
		Contract: contract,
		Sender:   sender,
		Method:   w.Method,
		OneTime:  w.OneTime,
	}
	if w.Proof != "" {
		proof, err := hex.DecodeString(strings.TrimPrefix(w.Proof, "0x"))
		if err != nil {
			return nil, fmt.Errorf("proof: %w", err)
		}
		req.Proof = proof
	}
	for _, a := range w.Args {
		v, err := DecodeArg(a)
		if err != nil {
			return nil, err
		}
		req.Args = append(req.Args, core.NamedArg{Name: a.Name, Value: v})
	}
	return req, nil
}

// FromRequest converts a core request into wire form (client side).
func FromRequest(req *core.Request) (*WireRequest, error) {
	w := &WireRequest{
		Type:     tokenTypeName(req.Type),
		Contract: req.Contract.Hex(),
		Sender:   req.Sender.Hex(),
		Method:   req.Method,
		OneTime:  req.OneTime,
	}
	if len(req.Proof) > 0 {
		w.Proof = hexString(req.Proof)
	}
	for _, a := range req.Args {
		wa, err := EncodeArg(a.Name, a.Value)
		if err != nil {
			return nil, err
		}
		w.Args = append(w.Args, wa)
	}
	return w, nil
}
