package net

import (
	"fmt"
	stdnet "net"
	"net/http"
	"time"
)

// Server runs one Node's HTTP interface on its own listener — the
// in-process equivalent of a replica process, used by the bench
// harness, the chaos scenarios, and smacs-ts -replica-of plumbing.
type Server struct {
	node     *Node
	listener stdnet.Listener
	srv      *http.Server
	done     chan struct{}
}

// Serve starts an HTTP server for node on addr ("127.0.0.1:0" for a
// fresh loopback port).
func Serve(node *Node, addr string) (*Server, error) {
	l, err := stdnet.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("replica/net: listen %s: %w", addr, err)
	}
	s := &Server{
		node:     node,
		listener: l,
		srv:      &http.Server{Handler: node.Handler(), ReadHeaderTimeout: 5 * time.Second},
		done:     make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(l)
	}()
	return s, nil
}

// Node returns the replica behind the server.
func (s *Server) Node() *Node { return s.node }

// Addr returns the listen address (host:port).
func (s *Server) Addr() string { return s.listener.Addr().String() }

// URL returns the replica base URL coordinators should dial.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the server, severing every open connection — a replica
// crash as its coordinators see it. The node's state machine (and its
// backend, if any) is untouched: re-Serve the node to model a rejoin.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
