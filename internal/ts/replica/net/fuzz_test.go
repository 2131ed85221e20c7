package net

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/store"
)

// FuzzNodeHandler throws arbitrary request sequences at a replica's HTTP
// handler — the wire decoder every coordinator RPC lands in. The input
// is a sequence of ops, each a selector byte (path = sel%3 over state,
// fence, grant; POST when sel/3 is odd, GET otherwise), a body length
// byte, and that many body bytes. After every op it checks:
//
//   - the handler never panics;
//   - a fence/grant body that is not exactly one JSON value of its type
//     (trailing data included) gets 400, a wrong method 405;
//   - the replica's accepted lease and promised epoch never decrease;
//   - every 200 reply's state equals Node.State().
func FuzzNodeHandler(f *testing.F) {
	op := func(sel byte, body string) []byte { return append([]byte{sel, byte(len(body))}, body...) }
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	f.Add(seq(op(4, `{"epoch":1}`), op(5, `{"epoch":1,"lease":1}`), op(0, "")))
	f.Add(seq(op(4, `{"epoch":3}`), op(4, `{"epoch":2}`), op(5, `{"epoch":2,"lease":9}`),
		op(5, `{"epoch":4,"lease":-1}`), op(5, `{"epoch":4,"lease":2}`)))
	f.Add(op(4, `{"epoch":`))
	f.Add(seq(op(4, `{"epoch":7}garbage`), op(5, `{"epoch":1,"lease":1} `)))
	f.Add(op(5, `{"epoch":"x","lease":1}`))
	f.Add(seq(op(1, ""), op(3, ""), op(2, `{"epoch":1,"lease":1}`)))

	paths := [...]string{PathState, PathFence, PathGrant}
	f.Fuzz(func(t *testing.T, data []byte) {
		node, err := OpenNode(store.NewMemory())
		if err != nil {
			t.Fatal(err)
		}
		h := node.Handler()
		var lastAccepted, lastPromised int64
		for len(data) >= 2 {
			sel, n := data[0], min(int(data[1]), len(data)-2)
			body := data[2 : 2+n]
			data = data[2+n:]
			path := paths[sel%3]
			method := http.MethodGet
			if sel/3%2 == 1 {
				method = http.MethodPost
			}

			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))

			accepted, promised := node.State()
			if accepted < lastAccepted || promised < lastPromised {
				t.Fatalf("%s %s %q: state went from (%d, %d) to (%d, %d)",
					method, path, body, lastAccepted, lastPromised, accepted, promised)
			}
			lastAccepted, lastPromised = accepted, promised
			want := wireState{Accepted: accepted, Promised: promised}

			var got wireState
			switch {
			case (path == PathState) != (method == http.MethodGet):
				expectStatus(t, rec, http.StatusMethodNotAllowed, method, path, body)
				continue
			case path == PathState:
				expectStatus(t, rec, http.StatusOK, method, path, body)
				got = decodeReply[wireState](t, rec)
			case !decodes(path, body):
				expectStatus(t, rec, http.StatusBadRequest, method, path, body)
				continue
			default:
				expectStatus(t, rec, http.StatusOK, method, path, body)
				got = decodeReply[wireAck](t, rec).State
			}
			if got != want {
				t.Fatalf("%s %s %q: reply state %+v, node state %+v", method, path, body, got, want)
			}
		}
	})
}

// decodes reports whether body is a well-formed request for path: one
// JSON value of the request type, nothing but whitespace after it.
func decodes(path string, body []byte) bool {
	var v any = &wireFenceRequest{}
	if path == PathGrant {
		v = &wireGrantRequest{}
	}
	return json.Unmarshal(body, v) == nil
}

func expectStatus(t *testing.T, rec *httptest.ResponseRecorder, want int, method, path string, body []byte) {
	t.Helper()
	if rec.Code != want {
		t.Fatalf("%s %s %q: status %d, want %d (%s)", method, path, body, rec.Code, want, rec.Body.Bytes())
	}
}

func decodeReply[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("undecodable 200 reply %q: %v", rec.Body.Bytes(), err)
	}
	return v
}
