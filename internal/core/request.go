package core

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"repro/internal/abi"
	"repro/internal/keccak"
	"repro/internal/secp256k1"
	"repro/internal/types"
)

// NamedArg is one argument/value pair of a token request (Fig. 2's
// argName/argValue fields). Name identifies the parameter for rule matching;
// Value is an ABI-encodable Go value.
type NamedArg struct {
	// Name is the parameter name as the contract owner's rules refer to it.
	Name string `json:"name"`
	// Value is the concrete argument value the client will call with.
	Value any `json:"value"`
}

// Request is a token request (Fig. 2). Its payload varies with the
// requested type per Tab. I: super tokens bind only addresses; method
// tokens add the method; argument tokens add the full argument list.
type Request struct {
	// Type is the requested token type.
	Type TokenType `json:"type"`
	// Contract is cAddr: the targeted SMACS-enabled contract.
	Contract types.Address `json:"contract"`
	// Sender is sAddr: the client account that will originate the call.
	Sender types.Address `json:"sender"`
	// Method identifies the target method (method/argument tokens only;
	// the paper's methodId). It is either a canonical signature such as
	// "act(address,uint256,string)", or a bare name, in which case the
	// signature is derived from the Args types (a niladic method when no
	// Args are given).
	Method string `json:"method,omitempty"`
	// Args are the argument name/value pairs (argument tokens only). The
	// order must match the method's parameter order.
	Args []NamedArg `json:"args,omitempty"`
	// OneTime requests the one-time property.
	OneTime bool `json:"oneTime,omitempty"`
	// Proof is an optional proof of possession: the client's 65-byte
	// signature over ProofDigest, showing the requester controls the
	// Sender account. Token Services may demand it (ts.Config
	// RequireProof) so third parties cannot spend a sender's issuance
	// allowance or probe the rules in its name.
	Proof []byte `json:"proof,omitempty"`
}

// ErrBadRequest is returned for requests whose payload does not match the
// requested token type (Tab. I).
var ErrBadRequest = errors.New("smacs: malformed token request")

// Validate checks the request shape against Tab. I.
func (r *Request) Validate() error {
	if !r.Type.Valid() {
		return fmt.Errorf("%w: unknown token type %d", ErrBadRequest, r.Type)
	}
	if r.Contract.IsZero() {
		return fmt.Errorf("%w: missing contract address", ErrBadRequest)
	}
	if r.Sender.IsZero() {
		return fmt.Errorf("%w: missing sender address", ErrBadRequest)
	}
	switch r.Type {
	case SuperType:
		if r.Method != "" || len(r.Args) > 0 {
			return fmt.Errorf("%w: super requests carry no method or arguments", ErrBadRequest)
		}
	case MethodType:
		if r.Method == "" {
			return fmt.Errorf("%w: method requests need a method id", ErrBadRequest)
		}
		if len(r.Args) > 0 {
			return fmt.Errorf("%w: method requests carry no argument values", ErrBadRequest)
		}
	case ArgumentType:
		if r.Method == "" {
			return fmt.Errorf("%w: argument requests need a method id", ErrBadRequest)
		}
	}
	return nil
}

// ArgValues returns the ordered argument values.
func (r *Request) ArgValues() []any {
	out := make([]any, len(r.Args))
	for i, a := range r.Args {
		out[i] = a.Value
	}
	return out
}

// MethodName returns the bare method name (the part before any parameter
// list) — the key owners use in per-method rules.
func (r *Request) MethodName() string {
	if i := strings.IndexByte(r.Method, '('); i >= 0 {
		return r.Method[:i]
	}
	return r.Method
}

// MethodSelector resolves the method identifier (msg.sig) from the Method
// field: directly from a canonical signature, or derived from the argument
// types for a bare name.
func (r *Request) MethodSelector() (abi.Selector, error) {
	return r.selector(r.ArgValues())
}

// selector is MethodSelector given the request's ArgValues.
func (r *Request) selector(args []any) (abi.Selector, error) {
	if strings.Contains(r.Method, "(") {
		return abi.SelectorFor(r.Method), nil
	}
	sel, err := abi.SelectorOf(r.MethodName(), args...)
	if err != nil {
		return abi.Selector{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return sel, nil
}

// Binding builds the cryptographic binding the issued token will carry,
// deriving msg.sig and msg.data from the declared method and arguments —
// the same bytes Alg. 1 reconstructs on-chain.
func (r *Request) Binding() (Binding, error) {
	b := Binding{Origin: r.Sender, Contract: r.Contract}
	if r.Type == SuperType {
		return b, nil
	}
	args := r.ArgValues()
	sel, err := r.selector(args)
	if err != nil {
		return Binding{}, err
	}
	b.Selector = sel
	if r.Type == ArgumentType {
		data := make([]byte, abi.SelectorLength, abi.SelectorLength+abi.EncodedLen(args...))
		copy(data, sel[:])
		if b.Data, err = abi.AppendEncode(data, args...); err != nil {
			return Binding{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	return b, nil
}

// proofDomain opens every proof-of-possession digest.
const proofDomain = "smacs-token-request-v1"

// ProofDigest is the digest a client signs to prove possession of the
// Sender account: a domain-separated hash over the request's binding
// fields (type, addresses, method, canonical argument values, one-time
// flag), each argument as name ‖ 0 ‖ ValueKey(value) ‖ 0.
func (r *Request) ProofDigest() types.Hash {
	var h keccak.Hasher
	var buf [len(proofDomain) + 1 + 2*types.AddressLength]byte
	b := append(buf[:0], proofDomain...)
	b = append(b, byte(r.Type))
	b = append(b, r.Contract[:]...)
	h.Write(append(b, r.Sender[:]...))
	h.WriteString(r.Method)
	var key [96]byte // holds the value key of any address or uint256
	for _, a := range r.Args {
		h.WriteString(a.Name)
		h.Write(append(AppendValueKey(append(key[:0], 0), a.Value), 0))
	}
	flag := [1]byte{0}
	if r.OneTime {
		flag[0] = 1
	}
	h.Write(flag[:])
	return types.Hash(h.Sum256())
}

// SignRequest attaches a proof of possession produced with the client's
// account key.
func SignRequest(r *Request, key *secp256k1.PrivateKey) error {
	sig, err := secp256k1.Sign(key, [32]byte(r.ProofDigest()))
	if err != nil {
		return fmt.Errorf("sign request: %w", err)
	}
	r.Proof = sig.Bytes()
	return nil
}

// VerifyProof checks the request's proof of possession against the Sender
// address.
func (r *Request) VerifyProof() error {
	if len(r.Proof) == 0 {
		return fmt.Errorf("%w: missing proof of possession", ErrBadRequest)
	}
	sig, err := secp256k1.ParseSignature(r.Proof)
	if err != nil {
		return fmt.Errorf("%w: proof: %v", ErrBadRequest, err)
	}
	signer, err := secp256k1.RecoverAddress([32]byte(r.ProofDigest()), sig)
	if err != nil {
		return fmt.Errorf("%w: proof: %v", ErrBadRequest, err)
	}
	if signer != r.Sender {
		return fmt.Errorf("%w: proof signed by %s, not sender %s", ErrBadRequest, signer, r.Sender)
	}
	return nil
}

// VerifyProofBatch checks the proofs of possession of many requests at
// once, amortizing the modular inversions of per-item recovery through
// secp256k1.RecoverAddressBatch. The i-th error matches what
// reqs[i].VerifyProof() returns — the batch path is an optimization,
// never a semantic change.
func VerifyProofBatch(reqs []*Request) []error {
	errs := make([]error, len(reqs))
	var (
		idx     []int
		digests [][32]byte
		sigs    []secp256k1.Signature
	)
	for i, r := range reqs {
		if len(r.Proof) == 0 {
			errs[i] = fmt.Errorf("%w: missing proof of possession", ErrBadRequest)
			continue
		}
		sig, err := secp256k1.ParseSignature(r.Proof)
		if err != nil {
			errs[i] = fmt.Errorf("%w: proof: %v", ErrBadRequest, err)
			continue
		}
		idx = append(idx, i)
		digests = append(digests, [32]byte(r.ProofDigest()))
		sigs = append(sigs, sig)
	}
	if len(idx) == 0 {
		return errs
	}
	addrs, rerrs := secp256k1.RecoverAddressBatch(digests, sigs)
	for j, i := range idx {
		switch {
		case rerrs[j] != nil:
			errs[i] = fmt.Errorf("%w: proof: %v", ErrBadRequest, rerrs[j])
		case addrs[j] != reqs[i].Sender:
			errs[i] = fmt.Errorf("%w: proof signed by %s, not sender %s", ErrBadRequest, addrs[j], reqs[i].Sender)
		}
	}
	return errs
}

// ValueKey canonicalizes an argument value for rule-list matching:
// addresses as 0x-hex, integers in decimal, booleans as true/false, byte
// slices as 0x-hex, strings verbatim.
func ValueKey(v any) string {
	var buf [96]byte
	return string(AppendValueKey(buf[:0], v))
}

// AppendValueKey appends ValueKey(v) to dst.
func AppendValueKey(dst []byte, v any) []byte {
	switch x := v.(type) {
	case types.Address:
		return AppendAddressKey(dst, x)
	case *big.Int:
		switch {
		case x == nil:
			return append(dst, '0')
		case x.IsInt64():
			return strconv.AppendInt(dst, x.Int64(), 10)
		}
		return x.Append(dst, 10)
	case uint64:
		return strconv.AppendUint(dst, x, 10)
	case bool:
		return strconv.AppendBool(dst, x)
	case []byte:
		return hex.AppendEncode(append(dst, "0x"...), x)
	case string:
		return append(dst, x...)
	default:
		return fmt.Appendf(dst, "%v", x)
	}
}

// AppendAddressKey appends ValueKey(a) to dst. Unlike AppendValueKey it
// takes the address unboxed, so a caller's address stays off the heap.
func AppendAddressKey(dst []byte, a types.Address) []byte {
	return hex.AppendEncode(append(dst, "0x"...), a[:])
}
