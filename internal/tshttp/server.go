package tshttp

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/rules"
	"repro/internal/ts"
)

// Server exposes a Token Service over HTTP.
//
// Routes:
//
//	POST /v1/token   — request a token (clients)
//	POST /v1/tokens  — request a batch of tokens in one round-trip
//	GET  /v1/info    — service address and token lifetime (public)
//	GET  /v1/stats   — aggregate issued/rejected counters (public)
//	GET  /v1/rules   — current ACRs (owner only: rules stay private)
//	PUT  /v1/rules   — replace the ACRs (owner only)
//	GET  /healthz    — liveness
//	GET  /metrics    — Prometheus text exposition of the server's registry
//	GET  /debug/pprof/* — runtime profiles (only with ServerOptions.Pprof)
//
// Every API route is instrumented: http_requests_total{route,code},
// http_request_seconds{route}, and an http_in_flight_requests gauge.
type Server struct {
	svc        *ts.Service
	ownerToken string
	mux        *http.ServeMux
	metrics    *serverMetrics
}

// ServerOptions tunes the HTTP frontend's observability surface.
type ServerOptions struct {
	// Registry is where the server's HTTP series live and what GET
	// /metrics renders (nil = a private one). Pass the same registry
	// the wrapped ts.Service was configured with so one scrape covers
	// issuance and transport.
	Registry *metrics.Registry
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiles expose internals (goroutine stacks, heap contents) that do
	// not belong on an open listener.
	Pprof bool
	// Admin, when set, is mounted under /v1/membership/ and /v1/admin/
	// behind the owner guard — the membership.Manager handler in the
	// daemon. Every membership route mutates issuance state, so the same
	// bearer secret that protects rule administration protects these
	// (and an empty owner token disables them, fail closed).
	Admin http.Handler
}

// NewServer wraps svc with default options. ownerToken is the bearer
// secret required by the rule-administration endpoints; an empty token
// disables them entirely (fail closed).
func NewServer(svc *ts.Service, ownerToken string) *Server {
	return NewServerWithOptions(svc, ownerToken, ServerOptions{})
}

// NewServerWithOptions wraps svc with explicit observability options.
func NewServerWithOptions(svc *ts.Service, ownerToken string, opts ServerOptions) *Server {
	reg := metrics.Or(opts.Registry)
	s := &Server{svc: svc, ownerToken: ownerToken, mux: http.NewServeMux(), metrics: newServerMetrics(reg)}
	handle := func(pattern, route string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.instrument(route, h))
	}
	handle("POST /v1/token", "/v1/token", s.handleToken)
	handle("POST /v1/tokens", "/v1/tokens", s.handleTokenBatch)
	handle("GET /v1/info", "/v1/info", s.handleInfo)
	handle("GET /v1/stats", "/v1/stats", s.handleStats)
	handle("GET /v1/rules", "/v1/rules", s.ownerOnly(s.handleGetRules))
	handle("PUT /v1/rules", "/v1/rules", s.ownerOnly(s.handlePutRules))
	handle("GET /healthz", "/healthz", func(w http.ResponseWriter, r *http.Request) {
		rpc.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.Handle("GET /metrics", reg.Handler())
	if opts.Admin != nil {
		admin := s.ownerOnly(opts.Admin.ServeHTTP)
		handle("/v1/membership/", "/v1/membership", admin)
		handle("/v1/admin/", "/v1/admin", admin)
	}
	if opts.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the HTTP handler (mount behind TLS in production — the
// paper's interface is HTTPS).
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) ownerOnly(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.ownerToken == "" {
			rpc.WriteError(w, http.StatusForbidden, "rule administration disabled")
			return
		}
		got := r.Header.Get("Authorization")
		want := "Bearer " + s.ownerToken
		if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
			rpc.WriteError(w, http.StatusUnauthorized, "owner authorization required")
			return
		}
		next(w, r)
	}
}

// Request-body caps: decoding happens before any semantic validation, so
// the byte limit — not the batch-length check — is what actually bounds
// an attacker-controlled allocation. The batch cap equals the
// single-request cap, so batching never admits a payload /v1/token would
// reject: a client whose argument payloads are large should send smaller
// batches or fall back to one /v1/token call per request.
const (
	maxTokenBodyBytes = 1 << 20           // one token request
	maxBatchBodyBytes = maxTokenBodyBytes // a full batch (~1 KiB per slot at maxBatchSize)
	maxRulesBodyBytes = 16 << 20          // an owner's full rule set
)

func (s *Server) handleToken(w http.ResponseWriter, r *http.Request) {
	var wr WireRequest
	if !rpc.Decode(w, r, maxTokenBodyBytes, &wr) {
		return
	}
	req, err := ToRequest(&wr)
	if err != nil {
		rpc.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	tk, err := s.svc.Issue(req)
	if err != nil {
		status := http.StatusForbidden
		if errors.Is(err, core.ErrBadRequest) {
			status = http.StatusBadRequest
		}
		rpc.WriteError(w, status, err.Error())
		return
	}
	rpc.WriteJSON(w, http.StatusOK, wireToken(&tk))
}

// maxBatchSize bounds POST /v1/tokens so one request cannot monopolize
// the issuance pipeline.
const maxBatchSize = 1024

func (s *Server) handleTokenBatch(w http.ResponseWriter, r *http.Request) {
	var wb WireBatchRequest
	if !rpc.Decode(w, r, maxBatchBodyBytes, &wb) {
		return
	}
	if len(wb.Requests) == 0 {
		rpc.WriteError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(wb.Requests) > maxBatchSize {
		rpc.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", len(wb.Requests), maxBatchSize))
		return
	}

	// Decode every slot first; a malformed slot carries its error without
	// failing the batch. The well-formed remainder issues concurrently.
	results := make([]WireBatchResult, len(wb.Requests))
	reqs := make([]*core.Request, 0, len(wb.Requests))
	slots := make([]int, 0, len(wb.Requests))
	for i := range wb.Requests {
		req, err := ToRequest(&wb.Requests[i])
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		reqs = append(reqs, req)
		slots = append(slots, i)
	}
	for j, res := range s.svc.IssueBatch(reqs) {
		i := slots[j]
		if res.Err != nil {
			results[i].Error = res.Err.Error()
			continue
		}
		wt := wireToken(&res.Token)
		results[i].Token = &wt
	}
	rpc.WriteJSON(w, http.StatusOK, WireBatchResponse{Results: results})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	rpc.WriteJSON(w, http.StatusOK, Info{
		Address:         s.svc.Address().Hex(),
		LifetimeSeconds: int64(s.svc.Lifetime().Seconds()),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	issued, rejected := s.svc.Stats()
	rpc.WriteJSON(w, http.StatusOK, Stats{Issued: issued, Rejected: rejected})
}

func (s *Server) handleGetRules(w http.ResponseWriter, r *http.Request) {
	rpc.WriteJSON(w, http.StatusOK, s.svc.Rules().Snapshot())
}

func (s *Server) handlePutRules(w http.ResponseWriter, r *http.Request) {
	rs := rules.NewRuleSet()
	if !rpc.Decode(w, r, maxRulesBodyBytes, rs) {
		return
	}
	s.svc.ReplaceRules(rs)
	rpc.WriteJSON(w, http.StatusOK, map[string]string{"status": "rules replaced"})
}
