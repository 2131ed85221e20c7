package tshttp

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nettest"
	"repro/internal/rules"
	"repro/internal/secp256k1"
	"repro/internal/ts"
	"repro/internal/types"
)

// newMetricsServer builds a service and frontend sharing one isolated
// registry, so assertions see exactly this test's traffic.
func newMetricsServer(t *testing.T, opts ServerOptions) (*httptest.Server, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	opts.Registry = reg
	svc, err := ts.New(ts.Config{
		Key:     secp256k1.PrivateKeyFromSeed([]byte("metrics http ts")),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServerWithOptions(svc, "", opts).Handler())
	t.Cleanup(srv.Close)
	return srv, reg
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// After a batch issue, /metrics must expose the issuance counters and
// the HTTP route series the scrape itself does not inflate.
func TestMetricsEndpointAfterBatchIssue(t *testing.T) {
	srv, _ := newMetricsServer(t, ServerOptions{})
	client := NewClient(srv.URL, "")

	reqs := []*core.Request{
		{Type: core.SuperType, Contract: types.Address{0x01}, Sender: types.Address{0xc1}},
		{Type: core.SuperType, Contract: types.Address{0x01}, Sender: types.Address{0xc2}},
		{Type: core.SuperType, Contract: types.Address{0x01}, Sender: types.Address{0xc3}},
	}
	res, err := client.RequestTokens(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("issue failed: %v", r.Err)
		}
	}

	body := scrape(t, srv.URL)
	for _, re := range []string{
		`(?m)^ts_tokens_issued_total 3$`,
		`(?m)^http_requests_total\{route="/v1/tokens",code="200"\} 1$`,
		`(?m)^http_request_seconds_count\{route="/v1/tokens"\} 1$`,
		`(?m)^http_in_flight_requests 0$`,
		`(?m)^ts_issue_batch_size_count 1$`,
		`(?m)^ts_issue_seconds_count 3$`,
	} {
		if !regexp.MustCompile(re).MatchString(body) {
			t.Errorf("/metrics missing %s\n%s", re, body)
		}
	}
}

// A denied request must land in the reason-labeled denial counter.
func TestMetricsDenialReason(t *testing.T) {
	srv, reg := newMetricsServer(t, ServerOptions{})
	client := NewClient(srv.URL, "")
	// Malformed: an argument token with no method.
	_, err := client.RequestToken(&core.Request{
		Type: core.ArgumentType, Contract: types.Address{0x01}, Sender: types.Address{0xc1},
	})
	if err == nil {
		t.Fatal("malformed request issued")
	}
	issued, denied := ts.RegistryStats(reg)
	if issued != 0 || denied != 1 {
		t.Errorf("RegistryStats = %d issued, %d denied; want 0, 1", issued, denied)
	}
	if !strings.Contains(scrape(t, srv.URL), `ts_tokens_denied_total{reason="bad_request"} 1`) {
		t.Error("denial not classified as bad_request")
	}
}

// pprof must be absent by default and mounted only when opted in.
func TestPprofOptIn(t *testing.T) {
	plain, _ := newMetricsServer(t, ServerOptions{})
	resp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in = %d, want 404", resp.StatusCode)
	}

	prof, _ := newMetricsServer(t, ServerOptions{Pprof: true})
	resp, err = http.Get(prof.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index with opt-in = %d", resp.StatusCode)
	}
}

// TestMetricsExpositionGolden pins the /metrics text after a fixed
// request mix — 200, 400 and 403 on /v1/token, 200, 400 and 413 on
// /v1/tokens, 401 on /v1/rules and 200 on /v1/info — against
// testdata/metrics.txt: the series, their order and every count. Only
// the timing-dependent values (the buckets and sums of the *_seconds
// histograms) are masked.
func TestMetricsExpositionGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	rs := rules.NewRuleSet()
	rs.SetSenderList(rules.NewList(rules.Whitelist, core.ValueKey(httpCli)))
	svc, err := ts.New(ts.Config{
		Key: httpTSKey, Rules: rs, Metrics: reg,
		Now: func() time.Time { return time.Date(2020, 3, 17, 12, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServerWithOptions(svc, "owner-secret", ServerOptions{Registry: reg}).Handler())
	t.Cleanup(srv.Close)
	cli := NewClient(srv.URL, "")
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	allowed := &core.Request{Type: core.SuperType, Contract: httpDst, Sender: httpCli}
	denied := &core.Request{Type: core.SuperType, Contract: httpDst, Sender: types.Address{0xbb}}
	for _, req := range []*core.Request{allowed, denied, allowed,
		{Type: core.MethodType, Contract: httpDst, Sender: httpCli}} {
		_, _ = cli.RequestToken(req)
	}
	_, _ = cli.RequestTokens([]*core.Request{allowed, denied})
	post("/v1/tokens", `{"requests":[]}`)
	post("/v1/tokens", `{"type":"`+strings.Repeat("a", maxBatchBodyBytes)+`"}`)
	_, _ = cli.RequestTokens([]*core.Request{allowed})
	_, _ = cli.FetchRules()
	if _, err := cli.Info(); err != nil {
		t.Fatal(err)
	}

	timing := regexp.MustCompile(`(?m)^(\w+_seconds_(?:bucket|sum)(?:\{[^}]*\})?) \S+$`)
	got := timing.ReplaceAllString(scrape(t, srv.URL), "$1 _")
	if err := nettest.DiffGolden("testdata/metrics.txt", got); err != nil {
		t.Fatal(err)
	}
}

// Concurrent first requests of each status code must all land in one
// series per code: the cached handles are resolved and stored from many
// handlers at once. Run with -race -count=10.
func TestRequestCountersConcurrent(t *testing.T) {
	reg := metrics.NewRegistry()
	rs := rules.NewRuleSet()
	rs.SetSenderList(rules.NewList(rules.Whitelist, core.ValueKey(httpCli)))
	svc, err := ts.New(ts.Config{Key: httpTSKey, Rules: rs, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServerWithOptions(svc, "", ServerOptions{Registry: reg}).Handler())
	t.Cleanup(srv.Close)
	cli := NewClient(srv.URL, "")
	reqs := []*core.Request{
		{Type: core.SuperType, Contract: httpDst, Sender: httpCli},          // 200
		{Type: core.SuperType, Contract: httpDst, Sender: types.Address{2}}, // 403
		{Type: core.MethodType, Contract: httpDst, Sender: httpCli},         // 400
	}
	const workers, rounds = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, req := range reqs {
					_, _ = cli.RequestToken(req)
				}
			}
		}()
	}
	wg.Wait()
	body := scrape(t, srv.URL)
	for _, code := range []string{"200", "403", "400"} {
		want := fmt.Sprintf("http_requests_total{route=\"/v1/token\",code=%q} %d\n", code, workers*rounds)
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q\n%s", want, body)
		}
	}
}
