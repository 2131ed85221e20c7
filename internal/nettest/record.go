package nettest

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
)

// Recorder serves an HTTP handler on loopback and records the raw bytes
// of every exchange in both directions — request line, headers and
// body — so a test can pin a protocol's wire format byte for byte.
type Recorder struct {
	*httptest.Server

	mu     sync.Mutex
	idle   *sync.Cond
	active map[net.Conn]bool // connections serving a request
	in     bytes.Buffer      // bytes read from clients since the last Exchange
	out    bytes.Buffer      // bytes written to clients since the last Exchange
}

// NewRecorder starts a recording server for h. Close it when done.
func NewRecorder(h http.Handler) *Recorder {
	r := &Recorder{active: make(map[net.Conn]bool)}
	r.idle = sync.NewCond(&r.mu)
	srv := httptest.NewUnstartedServer(h)
	srv.Listener = &recordingListener{Listener: srv.Listener, r: r}
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if s == http.StateActive {
			r.active[c] = true
			return
		}
		delete(r.active, c)
		r.idle.Broadcast()
	}
	srv.Start()
	r.Server = srv
	return r
}

// elideAbove is the size past which Exchange replaces a direction's bytes
// with a placeholder: an oversize body is a test input, not wire format,
// and how much of it a server reads before refusing varies.
const elideAbove = 8 << 10

var dateHeader = regexp.MustCompile(`(?m)^Date: [^\r\n]*`)

// Exchange waits until no request is being served, then returns the
// bytes read and written since the previous call as one transcript
// entry: a "### name" line, then every request line prefixed "> " and
// every response line "< ", with CR shown as `\r`. The two parts that
// vary between runs are normalised: the server's address reads ADDR
// and the Date header's value DATE.
func (r *Recorder) Exchange(name string) string {
	r.mu.Lock()
	for len(r.active) > 0 {
		r.idle.Wait()
	}
	in, out := r.in.String(), r.out.String()
	r.in.Reset()
	r.out.Reset()
	r.mu.Unlock()

	var b strings.Builder
	b.WriteString("### " + name + "\n")
	for _, part := range []struct{ prefix, bytes string }{{"> ", in}, {"< ", out}} {
		s := part.bytes
		if len(s) > elideAbove {
			s = "<over 8 KiB elided>"
		}
		s = strings.ReplaceAll(s, r.Listener.Addr().String(), "ADDR")
		s = dateHeader.ReplaceAllString(s, "Date: DATE")
		s = strings.ReplaceAll(s, "\r", `\r`)
		for _, line := range strings.Split(s, "\n") {
			b.WriteString(part.prefix + line + "\n")
		}
	}
	return b.String()
}

type recordingListener struct {
	net.Listener
	r *Recorder
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, r: l.r}, nil
}

type recordingConn struct {
	net.Conn
	r *Recorder
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.r.mu.Lock()
	c.r.in.Write(p[:n])
	c.r.mu.Unlock()
	return n, err
}

func (c *recordingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.r.mu.Lock()
	c.r.out.Write(p[:n])
	c.r.mu.Unlock()
	return n, err
}

// DiffGolden compares a transcript with the golden file at path and
// describes the first differing line, or returns nil when they match.
func DiffGolden(path, got string) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			return fmt.Errorf("%s line %d:\n got: %q\nwant: %q", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		return fmt.Errorf("%s: %d lines recorded, %d in the file", path, len(gl), len(wl))
	}
	return nil
}

// Endless answers every request 200 with a JSON string that never ends:
// a misbehaving server whose reply a client must cap instead of reading
// without bound. It returns once the client hangs up.
func Endless(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	chunk := bytes.Repeat([]byte("a"), 64<<10)
	_, _ = w.Write([]byte(`{"x":"`))
	for {
		if _, err := w.Write(chunk); err != nil {
			return
		}
	}
}
