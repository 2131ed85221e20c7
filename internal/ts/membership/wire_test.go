package membership

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/nettest"
	"repro/internal/ts"
	"repro/internal/ts/ring"
)

// TestWireBytes pins the exact bytes of the membership protocol against
// testdata/wire.txt, headers included: the admin calls an operator
// sends, the member calls a controller sends to a remote frontend (with
// its owner bearer), and the replies to every failure class.
func TestWireBytes(t *testing.T) {
	v1 := ring.View{Epoch: 1, Groups: []string{"a"}}
	start := func(group string) (*nettest.Recorder, *Manager, *ts.ShardedCounter) {
		stripe, err := ring.NewDynamicStripe(&seqCounter{}, group, v1, 0)
		if err != nil {
			t.Fatal(err)
		}
		counter, err := ts.NewShardedCounter(stripe, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := NewManager(Config{Group: group, Stripe: stripe, Counter: counter,
			Registry: metrics.NewRegistry(), OwnerToken: "sekrit"},
			v1, map[string]string{"a": "pending", group: "pending"}, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec := nettest.NewRecorder(mgr.Handler())
		t.Cleanup(rec.Close)
		return rec, mgr, counter
	}
	ra, ma, _ := start("a")
	rb, mb, counterB := start("b")
	urls := map[string]string{"a": ra.URL, "b": rb.URL}
	ma.urls, mb.urls = map[string]string{"a": ra.URL}, copyURLs(urls)

	var got strings.Builder
	exchange := func(rec *nettest.Recorder, name string, err error) {
		t.Helper()
		s := strings.NewReplacer(ra.Listener.Addr().String(), "ADDR_A", rb.Listener.Addr().String(), "ADDR_B").
			Replace(rec.Exchange(name))
		got.WriteString(s)
		if err != nil {
			got.WriteString("error: " + strings.ReplaceAll(err.Error(), rb.Listener.Addr().String(), "ADDR_B") + "\n")
		}
	}
	raw := func(rec *nettest.Recorder, method, path, body string) error {
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

	exchange(ra, "POST join", raw(ra, http.MethodPost, PathJoin, `{"group":"b","url":"`+rb.URL+`"}`))
	exchange(rb, "member calls of the join", nil)
	for i := 0; i < 3; i++ {
		if _, err := counterB.Next(); err != nil {
			t.Fatal(err)
		}
	}
	exchange(ra, "GET view", raw(ra, http.MethodGet, PathView, ""))
	exchange(ra, "POST drain", raw(ra, http.MethodPost, PathDrain, `{"group":"b"}`))
	exchange(rb, "member calls of the drain", nil)
	exchange(ra, "POST repair", raw(ra, http.MethodPost, PathRepair, ""))

	stale := &Remote{GroupName: "b", Base: rb.URL, OwnerToken: "sekrit"}
	exchange(rb, "Remote.Advance stale view", stale.Advance(v1, urls))
	exchange(ra, "POST join without group", raw(ra, http.MethodPost, PathJoin, `{"url":"x"}`))
	exchange(ra, "POST drain non-member", raw(ra, http.MethodPost, PathDrain, `{"group":"zz"}`))
	exchange(ra, "POST advance malformed", raw(ra, http.MethodPost, PathAdvance, `{"view":`))
	exchange(ra, "POST adopt oversize", raw(ra, http.MethodPost, PathAdopt, `{"ranges":[`+strings.Repeat(" ", 1<<20)+`]}`))
	exchange(ra, "POST drain trailing data", raw(ra, http.MethodPost, PathDrain, `{"group":"zz"}garbage`))
	exchange(ra, "GET join", raw(ra, http.MethodGet, PathJoin, ""))
	exchange(ra, "POST view", raw(ra, http.MethodPost, PathView, "{}"))

	if err := nettest.DiffGolden("testdata/wire.txt", got.String()); err != nil {
		t.Fatal(err)
	}
}
