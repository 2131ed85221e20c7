// Package nettest provides a fault-injecting TCP proxy for exercising
// distributed-systems failure modes against real network stacks. The
// chaos e2e scenarios and the networked-replica tests place one Proxy in
// front of each Token Service replica and then drop, delay, partition,
// or reset its traffic mid-run, on real sockets rather than a simulated
// network.
//
// Fault semantics, per proxy:
//
//   - Drop: new connections are accepted and immediately closed (the
//     client sees a reset/EOF before any byte flows). Established
//     connections are unaffected.
//   - Delay: every forwarded chunk, in both directions, is held for the
//     configured duration before being written on.
//   - Partition: a blackhole. New connections are accepted but no byte is
//     ever forwarded in either direction; established connections stop
//     forwarding too. Nothing is closed — peers block until their own
//     timeouts fire, exactly like a switch silently eating packets.
//   - Reset: every established connection is torn down immediately, even
//     mid-write, surfacing as ECONNRESET/EOF on both sides.
//
// All knobs are safe for concurrent use and take effect without
// restarting the proxy; Heal clears every standing fault at once.
package nettest

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy forwards TCP connections from its own loopback listener to a
// fixed target address, injecting the currently configured faults.
type Proxy struct {
	target   string
	listener net.Listener

	dropNew   atomic.Bool
	partition atomic.Bool
	delay     atomic.Int64 // nanoseconds added per forwarded chunk

	mu     sync.Mutex
	conns  map[*proxyConn]struct{}
	closed bool

	// unpartitioned is closed and re-made around partitions so blocked
	// copy loops can wake up when the network heals.
	unpartitioned chan struct{}

	accepted  atomic.Uint64
	dropped   atomic.Uint64
	resets    atomic.Uint64
	forwarded atomic.Uint64 // bytes, both directions
	wg        sync.WaitGroup
}

// proxyConn is one client↔target connection pair.
type proxyConn struct {
	client net.Conn
	server net.Conn
}

// NewProxy starts a proxy on a fresh loopback port forwarding to target
// (a host:port address). Close releases the listener and every
// connection.
func NewProxy(target string) (*Proxy, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		target:        target,
		listener:      l,
		conns:         make(map[*proxyConn]struct{}),
		unpartitioned: make(chan struct{}),
	}
	close(p.unpartitioned) // healthy at birth
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (host:port) — what clients
// should dial instead of the target.
func (p *Proxy) Addr() string { return p.listener.Addr().String() }

// URL returns the proxy address as an http base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetDrop makes the proxy close (on) or admit (off) new connections.
func (p *Proxy) SetDrop(on bool) { p.dropNew.Store(on) }

// SetDelay holds every forwarded chunk for d before writing it on
// (0 restores immediate forwarding).
func (p *Proxy) SetDelay(d time.Duration) { p.delay.Store(int64(d)) }

// SetPartition starts (on) or heals (off) a blackhole: while partitioned
// no byte is forwarded in either direction and nothing is closed.
func (p *Proxy) SetPartition(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	was := p.partition.Swap(on)
	switch {
	case on && !was:
		p.unpartitioned = make(chan struct{})
	case !on && was:
		close(p.unpartitioned)
	}
}

// healedChan returns the channel closed once the current partition (if
// any) heals.
func (p *Proxy) healedChan() chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.unpartitioned
}

// ResetAll tears down every established connection immediately — the
// mid-write reset fault. New connections are still admitted (combine
// with SetDrop to keep them out).
func (p *Proxy) ResetAll() {
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		p.resets.Add(1)
		c.close()
	}
}

// Heal clears every standing fault: drop, delay, and partition.
func (p *Proxy) Heal() {
	p.SetDrop(false)
	p.SetDelay(0)
	p.SetPartition(false)
}

// Stats reports connections accepted, connections refused by the drop
// fault, connections torn down by ResetAll, and total bytes forwarded.
func (p *Proxy) Stats() (accepted, dropped, resets, forwardedBytes uint64) {
	return p.accepted.Load(), p.dropped.Load(), p.resets.Load(), p.forwarded.Load()
}

// Close shuts the listener and every connection down and waits for the
// forwarding goroutines to finish.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.listener.Close()
	for _, c := range conns {
		c.close()
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if p.dropNew.Load() {
			p.dropped.Add(1)
			_ = client.Close()
			continue
		}
		server, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = client.Close()
			continue
		}
		c := &proxyConn{client: client, server: server}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.close()
			return
		}
		p.conns[c] = struct{}{}
		p.mu.Unlock()
		p.accepted.Add(1)
		p.wg.Add(2)
		go p.pipe(c, client, server)
		go p.pipe(c, server, client)
	}
}

// pipe copies src→dst through the fault filters. When src half-closes
// (EOF), the write side of dst is closed but the other direction keeps
// flowing — preserving half-open connection semantics. Any error tears
// the pair down.
func (p *Proxy) pipe(c *proxyConn, src, dst net.Conn) {
	defer p.wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if !p.throttle() {
				break // proxy closed while partitioned
			}
			// Count before the write: once dst can read the bytes, Stats
			// must already include them.
			p.forwarded.Add(uint64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				// Half-close: propagate the FIN, keep the reverse path.
				if cw, ok := dst.(interface{ CloseWrite() error }); ok {
					_ = cw.CloseWrite()
					return
				}
			}
			break
		}
	}
	p.drop(c)
}

// throttle applies the delay and partition faults to one chunk. It
// returns false when the proxy shut down while the chunk was being held.
func (p *Proxy) throttle() bool {
	if d := time.Duration(p.delay.Load()); d > 0 {
		time.Sleep(d)
	}
	for p.partition.Load() {
		healed := p.healedChan()
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return false
		}
		select {
		case <-healed:
		case <-time.After(50 * time.Millisecond):
			// Re-check closed so a proxy shut down mid-partition does not
			// leak this goroutine.
		}
	}
	return true
}

// drop closes and forgets a connection pair.
func (p *Proxy) drop(c *proxyConn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.close()
}

func (c *proxyConn) close() {
	// SetLinger(0) turns the close into a hard RST, so a peer blocked in
	// a write sees ECONNRESET immediately — the mid-write reset fault —
	// instead of buffering into a half-dead socket.
	if tc, ok := c.client.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	if tc, ok := c.server.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.client.Close()
	_ = c.server.Close()
}
