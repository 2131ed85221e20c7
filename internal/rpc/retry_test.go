package rpc

import (
	"errors"
	"io"
	stdnet "net"
	"testing"
)

func TestTransportClassification(t *testing.T) {
	dialErr := &stdnet.OpError{Op: "dial", Err: errors.New("connection refused")}
	readErr := &stdnet.OpError{Op: "read", Err: errors.New("connection reset by peer")}

	if e := classifyTransport("x", dialErr, false); !e.Retryable {
		t.Error("dial failure on a non-idempotent call classified fatal; nothing was sent")
	}
	if e := classifyTransport("x", readErr, false); e.Retryable {
		t.Error("mid-connection reset on a non-idempotent call classified retryable; the request may have been processed")
	}
	if e := classifyTransport("x", readErr, true); !e.Retryable {
		t.Error("reset on an idempotent call classified fatal")
	}
	if e := classifyTransport("x", io.EOF, false); e.Retryable {
		t.Error("bare EOF classified retryable for a POST")
	}

	wrapped := classifyTransport("token request", readErr, false)
	if !errors.As(error(wrapped), new(*TransportError)) {
		t.Error("classification lost the TransportError type")
	}
	if IsRetryable(wrapped) {
		t.Error("IsRetryable true for a fatal error")
	}
	if !IsRetryable(classifyTransport("stats request", readErr, true)) {
		t.Error("IsRetryable false for a retryable error")
	}
	if IsRetryable(errors.New("denied (403): rule")) {
		t.Error("IsRetryable true for a non-transport error")
	}
}
