package tshttp

import (
	"errors"
	stdnet "net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nettest"
	"repro/internal/rpc"
	"repro/internal/ts"
)

// reservePort returns a loopback address that is currently closed (its
// listener is opened and immediately released).
func reservePort(t *testing.T) string {
	t.Helper()
	l, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

// A POST against a dead address must surface a retryable TransportError:
// the dial failed, so the request provably never consumed anything.
func TestPostDialFailureIsRetryable(t *testing.T) {
	client := NewClient("http://"+reservePort(t), "")
	_, err := client.RequestToken(&core.Request{Type: core.SuperType, Contract: httpDst, Sender: httpCli})
	if err == nil {
		t.Fatal("request against a closed port succeeded")
	}
	if !rpc.IsRetryable(err) {
		t.Fatalf("dial failure not classified retryable: %v", err)
	}
}

// The client must internally resubmit a provably-unsent POST: a service
// that comes up between attempts sees exactly one request and the call
// succeeds.
func TestPostRetriesProvablyUnsentFailures(t *testing.T) {
	addr := reservePort(t)
	svc, err := ts.New(ts.Config{
		Key: httpTSKey,
		Now: func() time.Time { return time.Date(2020, 3, 17, 12, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var posts atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		NewServer(svc, "").Handler().ServeHTTP(w, r)
	})

	// Bring the service up on the reserved port while the client's first
	// attempt is already failing with connection-refused.
	started := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		l, err := stdnet.Listen("tcp", addr)
		if err != nil {
			close(started)
			return
		}
		srv := &http.Server{Handler: handler}
		go func() { _ = srv.Serve(l) }()
		t.Cleanup(func() { _ = srv.Close() })
		close(started)
	}()

	client := NewClient("http://"+addr, "")
	tk, err := client.RequestToken(&core.Request{Type: core.SuperType, Contract: httpDst, Sender: httpCli, OneTime: true})
	<-started
	if err != nil {
		t.Fatalf("request with late-starting service failed: %v", err)
	}
	if tk.Index != 1 {
		t.Fatalf("token index = %d, want 1", tk.Index)
	}
	if got := posts.Load(); got != 1 {
		t.Fatalf("service saw %d POSTs, want exactly 1 (no duplicate submissions)", got)
	}
}

// A reset after the request was written is ambiguous — the token may
// have been issued. The client must surface a fatal (non-retryable)
// TransportError and must NOT resubmit: the service sees at most one
// POST for the doomed call.
func TestMidRequestResetIsFatalAndNotResubmitted(t *testing.T) {
	srv, _ := newTestServer(t, "")
	var posts atomic.Int64
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		srv.Config.Handler.ServeHTTP(w, r)
	})
	counting := &http.Server{Handler: counted}
	l, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = counting.Serve(l) }()
	t.Cleanup(func() { _ = counting.Close() })

	proxy, err := nettest.NewProxy(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })

	client := NewClient(proxy.URL(), "")
	req := &core.Request{Type: core.SuperType, Contract: httpDst, Sender: httpCli, OneTime: true}
	if _, err := client.RequestToken(req); err != nil {
		t.Fatalf("warm-up request through proxy failed: %v", err)
	}
	warm := posts.Load()

	// Hold the response long enough for ResetAll to land mid-request.
	proxy.SetDelay(60 * time.Millisecond)
	errCh := make(chan error, 1)
	go func() {
		_, err := client.RequestToken(req)
		errCh <- err
	}()
	time.Sleep(25 * time.Millisecond)
	proxy.ResetAll()

	err = <-errCh
	if err == nil {
		t.Fatal("request survived a mid-flight reset")
	}
	var te *rpc.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("reset surfaced as %T (%v), want *TransportError", err, err)
	}
	if te.Retryable || rpc.IsRetryable(err) {
		t.Fatalf("mid-request reset classified retryable: %v", err)
	}
	if got := posts.Load(); got > warm+1 {
		t.Fatalf("service saw %d POSTs after the reset (warm=%d): the client resubmitted a non-idempotent request", got, warm)
	}
}

// Idempotent calls classify any transport failure as retryable, so a
// blip that heals within the retry budget is absorbed entirely.
func TestIdempotentGetAbsorbsTransientDrop(t *testing.T) {
	srv, _ := newTestServer(t, "")
	proxy, err := nettest.NewProxy(srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })

	client := NewClient(proxy.URL(), "")
	proxy.SetDrop(true)
	go func() {
		time.Sleep(15 * time.Millisecond)
		proxy.SetDrop(false)
	}()
	if _, err := client.Stats(); err != nil {
		t.Fatalf("idempotent GET did not ride out a transient drop: %v", err)
	}
}
