package rpc

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// errorBody is the one error shape every protocol answers with.
type errorBody struct {
	Error string `json:"error"`
}

// jsonContentType is the Content-Type value of every JSON body. Header
// maps share it read-only; assigning it skips Header.Set's copy.
var jsonContentType = []string{"application/json"}

// WriteJSON writes v as a status reply. An encoding failure is dropped:
// the status is already on the wire, so the client sees a cut body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes {"error": msg} as a status reply.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorBody{Error: msg})
}

// Decode reads r's body into v. The body must be exactly one JSON value
// (surrounding whitespace allowed) of at most limit bytes: past limit it
// answers 413, otherwise anything else — malformed JSON, a wrong field
// type, trailing data — answers 400. It reports whether v was decoded;
// on false the reply is written.
func Decode(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body, err := readAtMost(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, int(limit)+1)
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteError(w, status, "bad JSON: "+err.Error())
	return false
}

// maxPrealloc caps the buffer readAtMost sizes from a declared length,
// so a peer that declares a large body and sends little holds no more.
const maxPrealloc = 64 << 10

// readAtMost reads r to EOF, but no more than limit bytes. declared, the
// body's Content-Length (-1 when unknown), sizes the buffer, so a body
// that declares its length is read into one allocation.
func readAtMost(r io.Reader, declared int64, limit int) ([]byte, error) {
	size := 512
	if declared >= 0 {
		size = int(min(declared, maxPrealloc)) + 1 // +1: room for the Read that reports EOF
	}
	b := make([]byte, 0, min(size, limit))
	for {
		if len(b) == limit {
			return b, nil
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):min(cap(b), limit)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
