package tshttp

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/rules"
	"repro/internal/ts"
)

// TestWireBytes pins the exact bytes of every Token Service route, in
// both directions and headers included, against testdata/wire.txt: the
// client's requests for each Client method, and the server's replies to
// success and to every failure class it answers. The token routes run
// on a fixed clock, so their hex tokens and expiries are exact too.
func TestWireBytes(t *testing.T) {
	newRecorder := func(ownerToken string) *nettest.Recorder {
		svc, err := ts.New(ts.Config{
			Key: httpTSKey,
			Now: func() time.Time { return time.Date(2020, 3, 17, 12, 0, 0, 0, time.UTC) },
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := nettest.NewRecorder(NewServer(svc, ownerToken).Handler())
		t.Cleanup(rec.Close)
		return rec
	}
	srv := newRecorder("owner-secret")
	cli := NewClient(srv.URL, "")
	owner := NewClient(srv.URL, "owner-secret")

	var got strings.Builder
	exchange := func(rec *nettest.Recorder, name string, err error) {
		t.Helper()
		got.WriteString(rec.Exchange(name))
		if err != nil {
			got.WriteString("error: " + err.Error() + "\n")
		}
	}
	raw := func(method, path, bearer, body string) error {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if body == "" {
			req.Body, req.ContentLength = nil, 0
		}
		if bearer != "" {
			req.Header.Set("Authorization", "Bearer "+bearer)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp.Body.Close()
	}
	super := func(oneTime bool) *core.Request {
		return &core.Request{Type: core.SuperType, Contract: httpDst, Sender: httpCli, OneTime: oneTime}
	}
	wellFormed := `{"type":"super","contract":"` + httpDst.Hex() + `","sender":"` + httpCli.Hex() + `"}`
	oversize := `{"type":"` + strings.Repeat("a", maxTokenBodyBytes) + `"}`

	_, err := cli.RequestToken(super(true))
	exchange(srv, "RequestToken one-time", err)
	_, err = cli.RequestToken(&core.Request{Type: core.SuperType, Contract: httpDst, Sender: httpCli, Method: "x"})
	exchange(srv, "RequestToken bad shape", err)
	exchange(srv, "POST /v1/token unknown type", raw(http.MethodPost, "/v1/token", "", `{"type":"nope"}`))
	exchange(srv, "POST /v1/token malformed", raw(http.MethodPost, "/v1/token", "", `{"type":`))
	exchange(srv, "POST /v1/token oversize", raw(http.MethodPost, "/v1/token", "", oversize))
	exchange(srv, "GET /v1/token", raw(http.MethodGet, "/v1/token", "", ""))

	results, err := cli.RequestTokens([]*core.Request{super(true), super(false),
		{Type: core.SuperType, Contract: httpDst, Sender: httpCli, Method: "x"}})
	exchange(srv, "RequestTokens", err)
	for i, r := range results {
		if r.Err != nil {
			fmt.Fprintf(&got, "slot %d: %v\n", i, r.Err)
		}
	}
	exchange(srv, "POST /v1/tokens empty", raw(http.MethodPost, "/v1/tokens", "", `{"requests":[]}`))
	exchange(srv, "POST /v1/tokens malformed", raw(http.MethodPost, "/v1/tokens", "", `[`))

	_, err = cli.Info()
	exchange(srv, "Info", err)
	_, err = cli.Stats()
	exchange(srv, "Stats", err)
	exchange(srv, "GET /healthz", raw(http.MethodGet, "/healthz", "", ""))

	deny := rules.NewRuleSet()
	deny.SetSenderList(rules.NewList(rules.Whitelist, core.ValueKey(httpDst)))
	exchange(srv, "UpdateRules", owner.UpdateRules(deny))
	_, err = owner.FetchRules()
	exchange(srv, "FetchRules", err)
	_, err = cli.RequestToken(super(false))
	exchange(srv, "RequestToken denied", err)
	_, err = NewClient(srv.URL, "wrong").FetchRules()
	exchange(srv, "FetchRules wrong bearer", err)
	exchange(srv, "UpdateRules no bearer", cli.UpdateRules(deny))
	exchange(srv, "PUT /v1/rules malformed", raw(http.MethodPut, "/v1/rules", "owner-secret", `{"sender":`))

	// Trailing data after a well-formed value: last, because a decoder
	// that ignores it acts on the value (issues, replaces the rules).
	exchange(srv, "POST /v1/token trailing data", raw(http.MethodPost, "/v1/token", "", wellFormed+`garbage`))
	exchange(srv, "POST /v1/tokens trailing data", raw(http.MethodPost, "/v1/tokens", "", `{"requests":[`+wellFormed+`]}garbage`))
	exchange(srv, "PUT /v1/rules trailing data", raw(http.MethodPut, "/v1/rules", "owner-secret", `{}garbage`))

	closed := newRecorder("")
	_, err = NewClient(closed.URL, "").FetchRules()
	exchange(closed, "FetchRules administration disabled", err)

	if err := nettest.DiffGolden("testdata/wire.txt", got.String()); err != nil {
		t.Fatal(err)
	}
}
