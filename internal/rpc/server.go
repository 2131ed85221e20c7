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

// WriteJSON writes v as a status reply. An encoding failure is dropped:
// the status is already on the wire, so the client sees a cut body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
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
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
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
