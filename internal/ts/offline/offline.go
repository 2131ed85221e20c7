// Package offline implements the paper's § IX future-work sketch: a fully
// decentralized SMACS where "a TS implemented within a TEE enclave could
// decentralize the entire system: an owner would just publish its ACRs
// which would be validated by the enclave code running locally on a client
// (without contacting any central service)".
//
// The owner Seals a Bundle: the serialized rule set, a delegated issuing
// key, and a validity deadline, all bound by the owner's signature. A
// client Opens the bundle (the enclave attests the owner signature) and
// obtains a LocalIssuer that validates token requests against the bundled
// rules and signs tokens with the delegated key — the on-chain contract
// trusts the delegate's address exactly as it would a central TS.
//
// TEE simulation note: a real enclave would keep the
// delegated key sealed so the client host never sees it; here the bundle
// carries the key bytes and the "enclave boundary" is the package API.
// Everything else — signature-checked rule distribution, local validation,
// expiry clamping — exercises the real code paths.
//
// One-time tokens are not issuable offline: their uniqueness requires the
// coordinated counter of § IV-C/§ VII-B, which a disconnected issuer cannot
// provide. Such requests are rejected with ErrOneTimeOffline.
package offline

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"time"

	"repro/internal/core"
	"repro/internal/keccak"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/types"
)

// Bundle is the owner-published ACR package.
type Bundle struct {
	// RulesJSON is the Fig. 6-layout rule set.
	RulesJSON []byte `json:"rulesJson"`
	// IssuerKey is the delegated issuing key ("sealed" — see the package
	// note).
	IssuerKey []byte `json:"issuerKey"`
	// Contract restricts the bundle to one contract.
	Contract types.Address `json:"contract"`
	// NotAfter bounds both the bundle and every token it issues.
	NotAfter time.Time `json:"notAfter"`
	// OwnerSig binds all of the above to the owner key.
	OwnerSig []byte `json:"ownerSig"`
}

// Offline issuance errors.
var (
	ErrBadBundle      = errors.New("offline: bundle verification failed")
	ErrBundleExpired  = errors.New("offline: bundle expired")
	ErrOneTimeOffline = errors.New("offline: one-time tokens require a coordinated counter")
)

// digest computes the owner-signed commitment over the bundle contents.
func digest(rulesJSON []byte, issuerAddr, contract types.Address, notAfter time.Time) [32]byte {
	var deadline [8]byte
	binary.BigEndian.PutUint64(deadline[:], uint64(notAfter.Unix()))
	return keccak.Sum256Concat(
		[]byte("smacs-offline-bundle-v1"),
		rulesJSON,
		issuerAddr[:],
		contract[:],
		deadline[:],
	)
}

// Seal packages the rule set under the owner's signature. The issuerKey
// becomes the token-signing key; the SMACS-enabled contract must trust
// issuerKey's address (i.e., it is pkTS).
func Seal(ownerKey, issuerKey *secp256k1.PrivateKey, ruleSet *rules.RuleSet,
	contract types.Address, notAfter time.Time) (*Bundle, error) {

	rulesJSON, err := json.Marshal(ruleSet)
	if err != nil {
		return nil, fmt.Errorf("offline: marshal rules: %w", err)
	}
	var keyBytes [32]byte
	issuerKey.D.FillBytes(keyBytes[:])
	sig, err := secp256k1.Sign(ownerKey, digest(rulesJSON, issuerKey.Address(), contract, notAfter))
	if err != nil {
		return nil, fmt.Errorf("offline: sign bundle: %w", err)
	}
	return &Bundle{
		RulesJSON: rulesJSON,
		IssuerKey: keyBytes[:],
		Contract:  contract,
		NotAfter:  notAfter,
		OwnerSig:  sig.Bytes(),
	}, nil
}

// LocalIssuer validates requests against the bundled rules and issues
// tokens locally — the enclave's runtime role.
type LocalIssuer struct {
	key      *secp256k1.PrivateKey
	contract types.Address
	rules    *rules.RuleSet
	notAfter time.Time
	now      func() time.Time
	lifetime time.Duration
}

// Open verifies the bundle against the owner's address and instantiates
// the local issuer (the "enclave attestation" step). now may be nil.
func Open(b *Bundle, owner types.Address, now func() time.Time) (*LocalIssuer, error) {
	if now == nil {
		now = time.Now
	}
	if len(b.IssuerKey) != 32 {
		return nil, fmt.Errorf("%w: issuer key must be 32 bytes", ErrBadBundle)
	}
	issuerKey, err := secp256k1.NewPrivateKey(new(big.Int).SetBytes(b.IssuerKey))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBundle, err)
	}
	sig, err := secp256k1.ParseSignature(b.OwnerSig)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBundle, err)
	}
	signer, err := secp256k1.RecoverAddress(
		digest(b.RulesJSON, issuerKey.Address(), b.Contract, b.NotAfter), sig)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadBundle, err)
	}
	if signer != owner {
		return nil, fmt.Errorf("%w: signed by %s, want owner %s", ErrBadBundle, signer, owner)
	}
	if now().After(b.NotAfter) {
		return nil, fmt.Errorf("%w: deadline %s", ErrBundleExpired, b.NotAfter.UTC().Format(time.RFC3339))
	}
	ruleSet := rules.NewRuleSet()
	if err := json.Unmarshal(b.RulesJSON, ruleSet); err != nil {
		return nil, fmt.Errorf("%w: rules: %v", ErrBadBundle, err)
	}
	return &LocalIssuer{
		key:      issuerKey,
		contract: b.Contract,
		rules:    ruleSet,
		notAfter: b.NotAfter,
		now:      now,
		lifetime: time.Hour,
	}, nil
}

// Address returns the delegated issuing address the contract must trust.
func (li *LocalIssuer) Address() types.Address { return li.key.Address() }

// Issue validates the request against the bundled ACRs and returns a
// signed token whose expiry never exceeds the bundle deadline.
func (li *LocalIssuer) Issue(req *core.Request) (core.Token, error) {
	if req.OneTime {
		return core.Token{}, ErrOneTimeOffline
	}
	if err := req.Validate(); err != nil {
		return core.Token{}, err
	}
	if req.Contract != li.contract {
		return core.Token{}, fmt.Errorf("%w: bundle covers %s, request targets %s",
			ErrBadBundle, li.contract, req.Contract)
	}
	now := li.now()
	if now.After(li.notAfter) {
		return core.Token{}, fmt.Errorf("%w: deadline %s", ErrBundleExpired,
			li.notAfter.UTC().Format(time.RFC3339))
	}
	if err := li.rules.Check(req); err != nil {
		return core.Token{}, err
	}
	binding, err := req.Binding()
	if err != nil {
		return core.Token{}, err
	}
	expire := now.Add(li.lifetime)
	if expire.After(li.notAfter) {
		expire = li.notAfter
	}
	return core.SignToken(li.key, req.Type, expire, core.NotOneTime, binding)
}
