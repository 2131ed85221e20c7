package net

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/nettest"
	"repro/internal/store"
)

// TestWireBytes pins the exact bytes of the replica protocol against
// testdata/wire.txt, headers included — replica.bytes_per_round counts
// them through the benchmark's proxies: a coordinator's fence and
// grant (a fenced Next sends no state read), a standalone state read,
// and a node's replies to every failure class it answers.
func TestWireBytes(t *testing.T) {
	mem := store.NewMemory()
	node, err := OpenNode(mem)
	if err != nil {
		t.Fatal(err)
	}
	rec := nettest.NewRecorder(node.Handler())
	t.Cleanup(rec.Close)
	c, err := NewCoordinator([]string{rec.URL}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	exchange := func(name string, err error) {
		t.Helper()
		got.WriteString(rec.Exchange(name))
		if err != nil {
			got.WriteString("error: " + err.Error() + "\n")
		}
	}
	raw := func(method, path, body string) error {
		t.Helper()
		req, err := http.NewRequest(method, rec.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if body == "" {
			req.Body, req.ContentLength = nil, 0
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp.Body.Close()
	}

	_, err = c.Next()
	exchange("Next: fence, grant", err)
	_, err = c.Next()
	exchange("Next: grant", err)
	exchange("GET state", raw(http.MethodGet, PathState, ""))
	exchange("POST fence stale epoch", raw(http.MethodPost, PathFence, `{"epoch":1}`))
	exchange("POST fence malformed", raw(http.MethodPost, PathFence, `{"epoch":`))
	exchange("POST grant wrong type", raw(http.MethodPost, PathGrant, `{"epoch":"x","lease":1}`))
	exchange("POST fence oversize", raw(http.MethodPost, PathFence, `{"epoch":5,"pad":"`+strings.Repeat("x", 2*maxRequestBytes)+`"}`))
	exchange("GET fence", raw(http.MethodGet, PathFence, ""))
	exchange("POST state", raw(http.MethodPost, PathState, "{}"))
	exchange("POST grant trailing data", raw(http.MethodPost, PathGrant, `{"epoch":1,"lease":3}garbage`))
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	exchange("POST fence journal failure", raw(http.MethodPost, PathFence, `{"epoch":9}`))

	if err := nettest.DiffGolden("testdata/wire.txt", got.String()); err != nil {
		t.Fatal(err)
	}
}
