package rpc

import (
	"errors"
	"fmt"
	"net"
)

// TransportError is a connection-level failure talking to a server —
// dial failures, resets, timeouts — as opposed to a denial (which
// arrives as an HTTP status plus an {"error": …} body). It carries the
// retry classification the client worked out:
//
//   - Retryable: the request provably never reached the server (the
//     dial itself failed) or the call is idempotent, so repeating it
//     cannot double-spend anything. The client already retried these
//     up to Client.Retries times; a surviving retryable error means
//     retries ran out.
//   - Fatal (Retryable=false): the connection died after the request
//     may have been written. For POST /v1/token[s] the service may have
//     issued the token — consuming a one-time counter index — and lost
//     only the reply, so blind resubmission would burn a second index
//     for the same transaction. Callers must treat the issuance as
//     unknown and rebuild the request (fresh proof, fresh decision)
//     rather than replay it.
type TransportError struct {
	// Op names the failed call ("token request", "stats request", …).
	Op string
	// Retryable reports whether resubmitting the identical request is
	// safe (see the type comment).
	Retryable bool
	// Err is the underlying transport error.
	Err error
}

func (e *TransportError) Error() string {
	kind := "fatal"
	if e.Retryable {
		kind = "retryable"
	}
	return fmt.Sprintf("%s: %s transport error: %v", e.Op, kind, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// IsRetryable reports whether err is a transport failure that is safe
// to resubmit verbatim: either the request provably never reached the
// server or the call was idempotent. Denials (HTTP-level errors) are
// never retryable.
func IsRetryable(err error) bool {
	var te *TransportError
	return errors.As(err, &te) && te.Retryable
}

// classifyTransport wraps a transport error with its retry
// classification. idempotent marks calls that are safe to repeat even
// if the first attempt was processed (GETs and PUTs).
func classifyTransport(op string, err error, idempotent bool) *TransportError {
	return &TransportError{Op: op, Retryable: idempotent || provablyUnsent(err), Err: err}
}

// provablyUnsent reports whether the failure happened before any byte
// of the request could reach the server: the dial itself failed
// (connection refused, unreachable host). A reset or EOF after the
// connection was up is ambiguous — the server may have processed the
// request and lost only the reply — so it does NOT qualify.
func provablyUnsent(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}
