package tshttp

import (
	"encoding/hex"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/rules"
	"repro/internal/ts"
)

// Client talks to a Token Service over HTTP. This is the piece a wallet
// integrates so token acquisition happens "seamlessly for users prior to
// actual transaction sending" (§ IV-B). It keeps connections alive across
// requests, so a token per transaction does not cost a TCP (and, in
// production, TLS) handshake per transaction.
type Client struct {
	// api and owner share one connection pool; only owner calls (the
	// rule administration routes) carry the bearer secret.
	api, owner rpc.Client
}

// singleTimeout bounds one-request calls; batch calls extend it by
// batchSlotTimeout per submitted request, since the server may run
// proof checks, validators, and counter rounds for every slot.
const (
	singleTimeout    = 10 * time.Second
	batchSlotTimeout = 100 * time.Millisecond
)

// transportRetries is how many times a call is resubmitted after a
// transport failure classified retryable (see rpc.TransportError)
// before the error surfaces.
const transportRetries = 2

// NewClient creates a client for the service at base (e.g.
// "http://127.0.0.1:8546"). ownerToken may be empty for pure clients.
func NewClient(base string, ownerToken string) *Client {
	api := rpc.Client{Base: base, HTTP: rpc.NewHTTPClient(), Timeout: singleTimeout, Retries: transportRetries}
	owner := api
	owner.Bearer = ownerToken
	return &Client{api: api, owner: owner}
}

// RequestToken submits a token request and returns the parsed token.
// Token issuance is NOT idempotent (a successful issue consumes a
// one-time index), so only provably-unsent failures are retried.
func (c *Client) RequestToken(req *core.Request) (core.Token, error) {
	wr, err := FromRequest(req)
	if err != nil {
		return core.Token{}, err
	}
	var wt WireToken
	if err := c.api.Call("token request", http.MethodPost, "/v1/token", wr, &wt); err != nil {
		return core.Token{}, err
	}
	return parseWireToken(&wt)
}

// parseWireToken decodes the hex token of one wire slot. A token of the
// right length is decoded on the stack.
func parseWireToken(wt *WireToken) (core.Token, error) {
	if len(wt.Token) != 2*core.TokenLength {
		raw, err := hex.DecodeString(wt.Token)
		if err != nil {
			return core.Token{}, fmt.Errorf("token hex: %w", err)
		}
		return core.ParseToken(raw)
	}
	var digits [2 * core.TokenLength]byte
	var raw [core.TokenLength]byte
	copy(digits[:], wt.Token)
	if _, err := hex.Decode(raw[:], digits[:]); err != nil {
		return core.Token{}, fmt.Errorf("token hex: %w", err)
	}
	return core.ParseToken(raw[:])
}

// RequestTokens submits all requests in one POST /v1/tokens round-trip
// and returns one ts.Result per request, in order: Token for an issued
// slot, Err for a rejected one. The call itself fails only on transport
// or protocol errors — per-request rejections land in the slots.
func (c *Client) RequestTokens(reqs []*core.Request) ([]ts.Result, error) {
	wb := WireBatchRequest{Requests: make([]WireRequest, len(reqs))}
	for i, req := range reqs {
		wr, err := FromRequest(req)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		wb.Requests[i] = *wr
	}
	// A full batch may legitimately take longer than a single request,
	// so the deadline grows per slot. Batch issuance is as
	// non-idempotent as the single path: only provably-unsent failures
	// are retried.
	batch := c.api
	batch.Timeout += time.Duration(len(reqs)) * batchSlotTimeout
	var wr WireBatchResponse
	if err := batch.Call("batch token request", http.MethodPost, "/v1/tokens", wb, &wr); err != nil {
		return nil, err
	}
	if len(wr.Results) != len(reqs) {
		return nil, fmt.Errorf("batch token response: %d results for %d requests", len(wr.Results), len(reqs))
	}
	results := make([]ts.Result, len(wr.Results))
	for i := range wr.Results {
		slot := &wr.Results[i]
		switch {
		case slot.Error != "":
			results[i].Err = fmt.Errorf("token request denied: %s", slot.Error)
		case slot.Token == nil:
			results[i].Err = fmt.Errorf("batch slot %d: empty result", i)
		default:
			results[i].Token, results[i].Err = parseWireToken(slot.Token)
		}
	}
	return results, nil
}

// Info describes a Token Service instance.
type Info struct {
	// Address is the token-signing address contracts trust.
	Address string `json:"address"`
	// LifetimeSeconds is the configured token lifetime.
	LifetimeSeconds int64 `json:"lifetimeSeconds"`
}

// Info fetches the service's public parameters. It returns an error on
// transport failures, non-200 responses, and malformed bodies — a zero
// Info is never silently returned.
func (c *Client) Info() (Info, error) {
	var info Info
	if err := c.api.Call("info request", http.MethodGet, "/v1/info", nil, &info); err != nil {
		return Info{}, err
	}
	return info, nil
}

// Stats are the aggregate issuance counters of a Token Service instance.
// Like ts.Service.Stats, the pair is read without a lock on the server, so
// under concurrent issuance the two values may be offset by in-flight
// requests; after traffic quiesces they are exact (the e2e harness relies
// on that to cross-check client-observed counts).
type Stats struct {
	// Issued is the number of token requests the service granted.
	Issued uint64 `json:"issued"`
	// Rejected is the number it denied (rules, validators, bad requests).
	Rejected uint64 `json:"rejected"`
}

// Stats fetches the service's aggregate issued/rejected counters.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	if err := c.api.Call("stats request", http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// UpdateRules replaces the service's ACRs (owner only). Replacing the
// rule set is idempotent — resubmitting the same PUT converges to the
// same state — so any transport failure is retried.
func (c *Client) UpdateRules(rs *rules.RuleSet) error {
	return c.owner.Call("update rules", http.MethodPut, "/v1/rules", rs, nil)
}

// FetchRules downloads the current ACRs (owner only).
func (c *Client) FetchRules() (*rules.RuleSet, error) {
	rs := rules.NewRuleSet()
	if err := c.owner.Call("fetch rules", http.MethodGet, "/v1/rules", nil, rs); err != nil {
		return nil, err
	}
	return rs, nil
}
