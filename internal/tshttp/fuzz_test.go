package tshttp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/rules"
	"repro/internal/ts"
)

// FuzzServerHandler throws arbitrary request sequences at the Token
// Service's HTTP handler — the decoder every wallet request lands in.
// The input is a sequence of ops, each a selector byte, a body length
// byte, and that many body bytes. The selector picks the path (sel%6),
// the method (GET, POST or PUT by sel/6%3), whether the owner bearer is
// sent (sel/18%2), and, for sel/36%7 == 6, pads the body with
// whitespace past the route's cap (on the 1 MiB token routes only, and
// once per input, to bound the memory one input costs). After every op
// it checks:
//
//   - the handler never panics;
//   - a wrong method gets 405, an oversize body 413, and a body that is
//     not exactly one JSON value of the route's type 400;
//   - a request without the owner bearer never reaches the rule routes
//     (401), and nothing but an owner's PUT /v1/rules changes the rules.
func FuzzServerHandler(f *testing.F) {
	op := func(sel byte, body string) []byte { return append([]byte{sel, byte(len(body))}, body...) }
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	tokenReq := `{"type":"super","contract":"` + httpDst.Hex() + `","sender":"` + httpCli.Hex() + `","oneTime":true}`
	f.Add(seq(op(6, tokenReq), op(7, `{"requests":[`+tokenReq+`]}`), op(2, ""), op(3, "")))
	f.Add(seq(op(6+18, tokenReq+`x`), op(7, `{"requests":[]}`), op(6, `{"type":`)))
	f.Add(seq(op(16+18, `{"sender":{"whitelist":["`+httpCli.Hex()+`"]}}`), op(4+18, ""), op(16, `{}`), op(4, "")))
	f.Add(seq(op(0, ""), op(5, ""), op(17, ""), op(6+216, tokenReq)))

	paths := [...]string{"/v1/token", "/v1/tokens", "/v1/info", "/v1/stats", "/v1/rules", "/healthz"}
	methods := [...]string{http.MethodGet, http.MethodPost, http.MethodPut}
	type route struct{ method, path string }
	routes := map[route]bool{
		{http.MethodPost, "/v1/token"}: true, {http.MethodPost, "/v1/tokens"}: true,
		{http.MethodGet, "/v1/info"}: true, {http.MethodGet, "/v1/stats"}: true,
		{http.MethodGet, "/v1/rules"}: true, {http.MethodPut, "/v1/rules"}: true,
		{http.MethodGet, "/healthz"}: true,
	}
	caps := map[string]int{"/v1/token": maxTokenBodyBytes, "/v1/tokens": maxBatchBodyBytes}
	const owner = "owner-secret"

	f.Fuzz(func(t *testing.T, data []byte) {
		svc, err := ts.New(ts.Config{
			Key: httpTSKey,
			Now: func() time.Time { return time.Date(2020, 3, 17, 12, 0, 0, 0, time.UTC) },
		})
		if err != nil {
			t.Fatal(err)
		}
		h := NewServer(svc, owner).Handler()
		padded := false
		for len(data) >= 2 {
			sel, n := data[0], min(int(data[1]), len(data)-2)
			body := data[2 : 2+n]
			data = data[2+n:]
			path, method := paths[sel%6], methods[sel/6%3]
			authed := sel/18%2 == 1
			oversize := sel/36%7 == 6 && path != "/v1/rules" && !padded
			if oversize {
				padded = true
				body = append(slices.Clip(body), bytes.Repeat([]byte(" "), caps[path]+1)...)
			}

			rulesBefore := rulesJSON(t, svc)
			req := httptest.NewRequest(method, path, bytes.NewReader(body))
			if authed {
				req.Header.Set("Authorization", "Bearer "+owner)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			got := rec.Code

			var want []int
			switch {
			case !routes[route{method, path}]:
				want = []int{http.StatusMethodNotAllowed}
			case path == "/v1/rules" && !authed:
				want = []int{http.StatusUnauthorized}
			case method == http.MethodGet:
				want = []int{http.StatusOK}
			case oversize:
				want = []int{http.StatusRequestEntityTooLarge}
			case path == "/v1/token" && decodes(body, &WireRequest{}):
				want = []int{http.StatusOK, http.StatusBadRequest, http.StatusForbidden}
			case path == "/v1/tokens" && decodes(body, &WireBatchRequest{}):
				want = []int{http.StatusOK, http.StatusBadRequest}
			case path == "/v1/rules" && decodes(body, rules.NewRuleSet()):
				want = []int{http.StatusOK}
			default:
				want = []int{http.StatusBadRequest}
			}
			shown := body[:min(len(body), 64)]
			if !slices.Contains(want, got) {
				t.Fatalf("%s %s (owner %v) %q: status %d, want one of %v (%s)", method, path, authed, shown, got, want, rec.Body.Bytes())
			}
			ownerPut := authed && method == http.MethodPut && path == "/v1/rules"
			if after := rulesJSON(t, svc); !ownerPut && after != rulesBefore {
				t.Fatalf("%s %s (owner %v) %q changed the rules from %s to %s", method, path, authed, shown, rulesBefore, after)
			}
		}
	})
}

// decodes reports whether body is exactly one JSON value of v's type,
// nothing but whitespace after it.
func decodes(body []byte, v any) bool { return json.Unmarshal(body, v) == nil }

func rulesJSON(t *testing.T, svc *ts.Service) string {
	t.Helper()
	b, err := json.Marshal(svc.Rules().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
