// Package rpc is the JSON-over-HTTP layer the Token Service's three
// protocols share: token issuance (tshttp), the replicated counter
// (replica/net) and membership. It holds one client call path —
// deadline, bearer, retry classification, capped reply — and the server
// helpers every handler uses: a capped decoder that answers 400 or 413,
// and a writer for the one error shape, {"error": "<message>"}.
// Handlers register on an http.ServeMux with "METHOD /path" patterns,
// so the mux answers a wrong method with 405.
package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxResponseBytes caps every reply a Client reads, so a faulty or
// hostile server cannot make it allocate without bound. It is the
// largest body any of the protocols carries: an owner's full rule set.
const maxResponseBytes = 16 << 20

// retryBackoff spaces the attempts of a retried call.
const retryBackoff = 25 * time.Millisecond

// Client calls one server. It is a small value: build one per server
// (or per call) around a shared pooled *http.Client.
type Client struct {
	// Base is the server's base URL (e.g. "http://127.0.0.1:8546").
	Base string
	// HTTP carries the calls; share one (see NewHTTPClient) so
	// connections are reused across calls and Clients.
	HTTP *http.Client
	// Bearer, when set, is sent as "Authorization: Bearer <Bearer>".
	Bearer string
	// Timeout bounds one call, retries included. It must be positive.
	Timeout time.Duration
	// Retries is how many times a call is resubmitted after a transport
	// failure classified retryable (see TransportError).
	Retries int
}

// NewHTTPClient returns a pooled *http.Client for Clients to share. It
// clones the default transport when possible (keeping proxy and TLS
// defaults); a host application may have replaced that with another
// RoundTripper, in which case it starts from a fresh Transport. The
// default per-host idle cap (2) throttles concurrent wallets and load
// generators, so the pool is raised.
func NewHTTPClient() *http.Client {
	transport, ok := http.DefaultTransport.(*http.Transport)
	if ok {
		transport = transport.Clone()
	} else {
		transport = &http.Transport{}
	}
	transport.MaxIdleConns = 256
	transport.MaxIdleConnsPerHost = 256
	return &http.Client{Transport: transport}
}

// Call sends method path with in as its JSON body (nil = no body) and
// decodes a 200 reply into out (nil = ignore the reply). op names the
// call in errors. A transport failure comes back as a *TransportError,
// after resubmitting it up to Retries times when it is retryable: any
// failure of a GET or PUT, and a POST's only when the dial failed, since
// a POST may have been processed. A non-200 reply comes back as
// "<op> denied (<status>): <message>", with the server's message.
func (c *Client) Call(op, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("%s: %w", op, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.Timeout)
	defer cancel()
	var status int
	var reply []byte
	for attempt := 0; ; attempt++ {
		var err error
		if status, reply, err = c.attempt(ctx, method, path, body); err == nil {
			break
		}
		terr := classifyTransport(op, err, method != http.MethodPost)
		if !terr.Retryable || attempt >= c.Retries {
			return terr
		}
		time.Sleep(retryBackoff)
	}
	if len(reply) > maxResponseBytes {
		return fmt.Errorf("%s: reply exceeds %d bytes", op, maxResponseBytes)
	}
	if status != http.StatusOK {
		var e errorBody
		if json.Unmarshal(reply, &e) != nil || e.Error == "" {
			e.Error = http.StatusText(status)
		}
		return fmt.Errorf("%s denied (%d): %s", op, status, e.Error)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(reply, out); err != nil {
		return fmt.Errorf("%s: reply: %w", op, err)
	}
	return nil
}

// attempt makes one request and reads at most maxResponseBytes+1 bytes
// of its reply, which leaves a well-sized reply fully read so the
// connection returns to the pool.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, r)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header["Content-Type"] = jsonContentType
	}
	if c.Bearer != "" {
		req.Header.Set("Authorization", "Bearer "+c.Bearer)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := readAtMost(resp.Body, resp.ContentLength, maxResponseBytes+1)
	return resp.StatusCode, reply, err
}
