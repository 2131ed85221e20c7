package membership

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/secp256k1"
	"repro/internal/ts"
	"repro/internal/ts/ring"
	"repro/internal/tshttp"
)

// noNetwork fails every request, so member calls a fuzzed view change
// makes to the URLs in its input never leave the process.
type noNetwork struct{}

func (noNetwork) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("fuzz: member calls stay in process")
}

// FuzzManagerHandler throws arbitrary request sequences at the member
// and admin endpoints, mounted behind the Token Service's owner guard
// as the daemon mounts them. The input is a sequence of ops, each a
// selector byte, a body length byte, and that many body bytes. The
// selector picks the path (sel%9), the method (GET or POST by sel/9%2),
// whether the owner bearer is sent (sel/18%2), and, for sel/36%7 == 6,
// pads the body with whitespace past the 1 MiB cap (once per input, to
// bound the memory one input costs). After every op it checks:
//
//   - the handler never panics;
//   - a wrong method gets 405, an oversize body 413, and a body that is
//     not exactly one JSON value of the route's type 400;
//   - a request without the owner bearer gets 401 and never changes the
//     membership state (view, epoch base, URL map).
func FuzzManagerHandler(f *testing.F) {
	op := func(sel byte, body string) []byte { return append([]byte{sel, byte(len(body))}, body...) }
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	const authed = 18
	f.Add(seq(op(authed+9, "{}"), op(authed+10, `{"view":{"epoch":2,"groups":["a"]},"urls":{"a":"http://a"}}`),
		op(authed+11, "{}"), op(authed+5, "")))
	f.Add(seq(op(authed+9+6, `{"group":"b","url":"http://b"}`), op(authed+9+7, `{"group":"a"}`), op(authed+9+8, "")))
	f.Add(seq(op(authed+9+3, `{"ranges":[{"from":1,"to":4}]}`), op(authed+9+4, `{"ranges":[{"from":1,"to":4}]}x`)))
	f.Add(seq(op(9+1, `{"view":{"epoch":9,"groups":["z"]}}`), op(9+6, `{"group":"b","url":"http://b"}`), op(5, "")))
	f.Add(seq(op(authed+9+1, `{"view":`), op(authed+1, "{}"), op(216+authed+9+6, `{}`)))

	paths := [...]string{PathFreeze, PathAdvance, PathResume, PathRelease, PathAdopt, PathView, PathJoin, PathDrain, PathRepair}
	bodies := map[string]func() any{
		PathAdvance: func() any { return &wireAdvanceReq{} },
		PathAdopt:   func() any { return &wireAdoptReq{} },
		PathJoin:    func() any { return &wireJoinReq{} },
		PathDrain:   func() any { return &wireDrainReq{} },
	}
	const owner = "owner-secret"
	saved := memberHTTP
	memberHTTP = &http.Client{Transport: noNetwork{}}
	f.Cleanup(func() { memberHTTP = saved })

	f.Fuzz(func(t *testing.T, data []byte) {
		v1 := ring.View{Epoch: 1, Groups: []string{"a"}}
		stripe, err := ring.NewDynamicStripe(&seqCounter{}, "a", v1, 0)
		if err != nil {
			t.Fatal(err)
		}
		counter, err := ts.NewShardedCounter(stripe, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		mgr, err := NewManager(Config{Group: "a", Stripe: stripe, Counter: counter, Registry: reg},
			v1, map[string]string{"a": "http://a"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := ts.New(ts.Config{Key: secp256k1.PrivateKeyFromSeed([]byte("fuzz ts")), Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		h := tshttp.NewServerWithOptions(svc, owner, tshttp.ServerOptions{Registry: reg, Admin: mgr.Handler()}).Handler()
		padded := false
		for len(data) >= 2 {
			sel, n := data[0], min(int(data[1]), len(data)-2)
			body := data[2 : 2+n]
			data = data[2+n:]
			path := paths[sel%9]
			method := http.MethodGet
			if sel/9%2 == 1 {
				method = http.MethodPost
			}
			authed := sel/18%2 == 1
			oversize := sel/36%7 == 6 && !padded
			if oversize {
				padded = true
				body = append(slices.Clip(body), bytes.Repeat([]byte(" "), maxBodyBytes+1)...)
			}

			before := stateJSON(t, mgr)
			req := httptest.NewRequest(method, path, bytes.NewReader(body))
			if authed {
				req.Header.Set("Authorization", "Bearer "+owner)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)

			var want []int
			decoded := bodies[path]
			switch {
			case !authed:
				want = []int{http.StatusUnauthorized}
			case (path == PathView) != (method == http.MethodGet):
				want = []int{http.StatusMethodNotAllowed}
			case path == PathView:
				want = []int{http.StatusOK}
			case decoded != nil && oversize:
				want = []int{http.StatusRequestEntityTooLarge}
			case decoded != nil && json.Unmarshal(body, decoded()) != nil:
				want = []int{http.StatusBadRequest}
			default:
				want = []int{http.StatusOK, http.StatusConflict}
			}
			shown := body[:min(len(body), 64)]
			if !slices.Contains(want, rec.Code) {
				t.Fatalf("%s %s (owner %v) %q: status %d, want one of %v (%s)", method, path, authed, shown, rec.Code, want, rec.Body.Bytes())
			}
			if after := stateJSON(t, mgr); !authed && after != before {
				t.Fatalf("%s %s without the owner bearer %q changed the membership state from %s to %s", method, path, shown, before, after)
			}
		}
	})
}

func stateJSON(t *testing.T, m *Manager) string {
	t.Helper()
	b, err := json.Marshal(m.State())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
