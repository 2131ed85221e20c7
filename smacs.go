// Package smacs is the public API of the SMACS reproduction (DSN 2020):
// a token-based access-control framework for smart contracts where an
// off-chain Token Service validates requests against updatable Access
// Control Rules and issues short signed tokens, while the contract performs
// only a lightweight on-chain verification.
//
// The package re-exports the library surface; implementations live under
// internal/:
//
//	evm        — the simulated Ethereum substrate (chain, gas, contracts)
//	core       — tokens, Alg. 1 verification, Alg. 2 one-time bitmap
//	rules      — white/blacklist ACRs (Fig. 6)
//	ts         — the Token Service (+ ts/replica/net for HA counters)
//	tshttp     — the HTTP front end and client
//	transform  — the legacy→SMACS adoption tool (Fig. 4)
//	rtverify   — runtime-verification tools (hydra, ecf)
//	contracts  — sample and baseline contracts
//	bench      — the evaluation harness (every table and figure)
//
// A minimal end-to-end flow:
//
//	chain := smacs.NewChain(smacs.DefaultChainConfig())
//	owner := smacs.NewWalletFromSeed("owner", chain)
//	chain.Fund(owner.Address(), smacs.Ether(10))
//
//	service, _ := smacs.NewTokenService(smacs.TokenServiceConfig{Key: ownerKey})
//	verifier := smacs.NewVerifier(service.Address())
//	protected := smacs.EnableContract(legacyContract, verifier)
//	addr, _, _ := chain.Deploy(owner.Address(), protected)
//
//	token, _ := service.Issue(&smacs.TokenRequest{
//		Type: smacs.SuperToken, Contract: addr, Sender: client.Address(),
//	})
//	client.Call(addr, "method", smacs.WithTokens(
//		smacs.TokenEntry{Contract: addr, Token: token}))
package smacs

import (
	"math/big"

	"repro/internal/core"
	"repro/internal/evm"
	"repro/internal/gas"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/transform"
	"repro/internal/ts"
	"repro/internal/tshttp"
	"repro/internal/types"
	"repro/internal/wallet"
)

// Substrate types.
type (
	// Address is a 20-byte Ethereum account or contract address.
	Address = types.Address
	// Hash is a 32-byte Keccak-256 digest.
	Hash = types.Hash
	// Chain is the simulated Ethereum chain.
	Chain = evm.Chain
	// ChainConfig parameterizes a chain.
	ChainConfig = evm.Config
	// Contract is a deployable unit of logic.
	Contract = evm.Contract
	// Method describes one contract method.
	Method = evm.Method
	// Call is the execution context of a call frame.
	Call = evm.Call
	// Receipt reports a transaction outcome with its gas breakdown.
	Receipt = evm.Receipt
	// Transaction is a signed state transition.
	Transaction = evm.Transaction
	// GasPrice converts gas to ether and USD.
	GasPrice = gas.Price
	// PrivateKey is a secp256k1 signing key.
	PrivateKey = secp256k1.PrivateKey
)

// SMACS core types.
type (
	// Token is a SMACS access token (Fig. 3).
	Token = core.Token
	// TokenType is the permission level of a token.
	TokenType = core.TokenType
	// TokenRequest is a client's token request (Fig. 2).
	TokenRequest = core.Request
	// NamedArg is one argument name/value pair of a request.
	NamedArg = core.NamedArg
	// Binding is the transaction context a token is bound to.
	Binding = core.Binding
	// Verifier is the contract-side verification library (Alg. 1).
	Verifier = core.Verifier
	// Bitmap is the one-time-token bitmap (Alg. 2).
	Bitmap = core.Bitmap
	// RuleSet is an owner's Access Control Rule configuration (Fig. 6).
	RuleSet = rules.RuleSet
	// List is a single white- or blacklist.
	List = rules.List
	// TokenService issues tokens against the rules.
	TokenService = ts.Service
	// TokenServiceConfig parameterizes a Token Service.
	TokenServiceConfig = ts.Config
	// TokenServiceCounter allocates one-time-token indexes.
	TokenServiceCounter = ts.Counter
	// ShardedCounter allocates one-time indexes from per-shard leased
	// blocks for contention-free parallel issuance.
	ShardedCounter = ts.ShardedCounter
	// TokenServiceServer exposes a service over HTTP.
	TokenServiceServer = tshttp.Server
	// TokenServiceClient requests tokens over HTTP.
	TokenServiceClient = tshttp.Client
	// Wallet signs and submits transactions for one account.
	Wallet = wallet.Wallet
	// CallOpts tweaks a transaction.
	CallOpts = wallet.CallOpts
	// TokenEntry pairs a token with its target contract.
	TokenEntry = wallet.TokenEntry
)

// Token types (§ IV-A).
const (
	// SuperToken grants access to all public methods.
	SuperToken = core.SuperType
	// MethodToken grants access to one method with arbitrary arguments.
	MethodToken = core.MethodType
	// ArgumentToken grants access to one method with fixed arguments.
	ArgumentToken = core.ArgumentType
)

// Method visibilities (§ II-B).
const (
	External = evm.External
	Public   = evm.Public
	Internal = evm.Internal
	Private  = evm.Private
)

// NotOneTime is the token index of tokens without the one-time property.
const NotOneTime = core.NotOneTime

// NewChain creates a simulated chain with a genesis block.
func NewChain(cfg ChainConfig) *Chain { return evm.NewChain(cfg) }

// DefaultChainConfig returns a testnet-like chain configuration.
func DefaultChainConfig() ChainConfig { return evm.DefaultConfig() }

// NewContract creates an empty contract.
func NewContract(name string) *Contract { return evm.NewContract(name) }

// NewTokenService creates a Token Service.
func NewTokenService(cfg TokenServiceConfig) (*TokenService, error) { return ts.New(cfg) }

// NewShardedCounter shards the one-time index space of underlying (nil =
// a local counter) across shards, leasing blockSize indexes at a time.
func NewShardedCounter(underlying TokenServiceCounter, shards, blockSize int) (*ShardedCounter, error) {
	return ts.NewShardedCounter(underlying, shards, blockSize)
}

// NewVerifier creates the contract-side verifier trusting the given Token
// Service address.
func NewVerifier(tsAddr Address) *Verifier { return core.NewVerifier(tsAddr) }

// NewBitmap creates an n-bit one-time-token bitmap rooted at baseSlot.
func NewBitmap(n int, baseSlot uint64) (*Bitmap, error) { return core.NewBitmap(n, baseSlot) }

// BitmapSizeFor sizes a bitmap so no fresh token is missed:
// lifetime × peak tx rate (§ IV-C).
func BitmapSizeFor(lifetimeSeconds, txPerSecond float64) int {
	return core.SizeFor(lifetimeSeconds, txPerSecond)
}

// EnableContract turns a legacy contract into a SMACS-enabled one (Fig. 4).
func EnableContract(legacy *Contract, v *Verifier, opts ...transform.Options) *Contract {
	return transform.Enable(legacy, v, opts...)
}

// NewRuleSet creates an empty (allow-all) rule set.
func NewRuleSet() *RuleSet { return rules.NewRuleSet() }

// NewWhitelist builds a whitelist with the given entries.
func NewWhitelist(entries ...string) *List { return rules.NewList(rules.Whitelist, entries...) }

// NewBlacklist builds a blacklist with the given entries.
func NewBlacklist(entries ...string) *List { return rules.NewList(rules.Blacklist, entries...) }

// NewWallet creates a wallet for key operating against chain.
func NewWallet(key *PrivateKey, chain *Chain) *Wallet { return wallet.New(key, chain) }

// NewWalletFromSeed creates a wallet with a deterministic key.
func NewWalletFromSeed(seed string, chain *Chain) *Wallet { return wallet.FromSeed(seed, chain) }

// WithTokens builds CallOpts carrying the given tokens (§ IV-D ordering).
func WithTokens(entries ...TokenEntry) CallOpts { return wallet.WithTokens(entries...) }

// GenerateKey creates a fresh random key (rng may be nil).
func GenerateKey() (*PrivateKey, error) { return secp256k1.GenerateKey(nil) }

// KeyFromSeed derives a deterministic key from a seed.
func KeyFromSeed(seed string) *PrivateKey { return secp256k1.PrivateKeyFromSeed([]byte(seed)) }

// NewTokenServiceServer wraps a service in the HTTP front end.
func NewTokenServiceServer(svc *TokenService, ownerToken string) *TokenServiceServer {
	return tshttp.NewServer(svc, ownerToken)
}

// NewTokenServiceClient creates an HTTP client for a Token Service.
func NewTokenServiceClient(base, ownerToken string) *TokenServiceClient {
	return tshttp.NewClient(base, ownerToken)
}

// Ether returns n ether in wei.
func Ether(n int64) *big.Int {
	return new(big.Int).Mul(big.NewInt(n), big.NewInt(1e18))
}

// ValueKey canonicalizes an argument value for rule lists.
func ValueKey(v any) string { return core.ValueKey(v) }
