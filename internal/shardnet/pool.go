package shardnet

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
)

// errPoolClosed is returned by get after Close; it marks the pool's
// owner (the coordinator) as shutting down, not a transport fault.
var errPoolClosed = errors.New("shardnet: connection pool closed")

// pconn is one pooled connection: the raw conn plus its buffered
// reader (frames are read through it, so it must travel with the
// conn) and the instant it went idle, for health-check staleness.
type pconn struct {
	c         net.Conn
	br        *bufio.Reader
	idleSince time.Time
}

// pool is a bounded idle-connection pool for one server address.
// Connections idle past healthAfter are ping-verified before reuse and
// redialed if the ping fails — a restarted server is picked up
// transparently.
type pool struct {
	addr        string
	healthAfter time.Duration // healthCheckAfter; a field so tests can make every reuse ping

	mu     sync.Mutex
	idle   []*pconn
	closed bool
}

func newPool(addr string) *pool {
	return &pool{addr: addr, healthAfter: healthCheckAfter}
}

// splitAddr maps an address spec to a net network/address pair:
// "unix:/path/sock" dials a unix socket (the test and same-host
// deployment path), anything else is TCP host:port.
func splitAddr(addr string) (network, address string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", rest
	}
	return "tcp", addr
}

// get returns a healthy connection: a fresh idle one as-is, a stale
// idle one after a ping round-trip, or a new dial. The caller must
// return it with put (on success) or close it (on error).
func (p *pool) get(ctx context.Context) (*pconn, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, errPoolClosed
		}
		n := len(p.idle)
		if n == 0 {
			p.mu.Unlock()
			return p.dial(ctx)
		}
		pc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		if time.Since(pc.idleSince) > p.healthAfter && !pc.healthy(dialTimeout) {
			_ = pc.c.Close()
			continue // try the next idle conn, or dial
		}
		return pc, nil
	}
}

// healthy runs one ping/pong round-trip under a deadline. Any failure
// condemns the connection.
func (pc *pconn) healthy(timeout time.Duration) bool {
	if err := pc.c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return false
	}
	if err := writeAll(pc.c, encodePing()); err != nil {
		return false
	}
	typ, _, err := readMsg(pc.br)
	if err != nil || typ != msgPong {
		return false
	}
	return pc.c.SetDeadline(time.Time{}) == nil
}

func (p *pool) dial(ctx context.Context) (*pconn, error) {
	if _, ok := fault.Fire(fault.ConnDialErr); ok {
		return nil, fault.ErrInjectedDial
	}
	network, address := splitAddr(p.addr)
	d := net.Dialer{Timeout: dialTimeout}
	c, err := d.DialContext(ctx, network, address)
	if err != nil {
		return nil, err
	}
	c = fault.Conn(c)
	return &pconn{c: c, br: bufio.NewReader(c)}, nil
}

// put returns a connection to the idle list, or closes it when the
// pool is full or closed. Deadlines are cleared so a pooled conn never
// inherits a finished request's deadline.
func (p *pool) put(pc *pconn) {
	if err := pc.c.SetDeadline(time.Time{}); err != nil {
		_ = pc.c.Close()
		return
	}
	pc.idleSince = time.Now()
	p.mu.Lock()
	if p.closed || len(p.idle) >= maxIdlePerServer {
		p.mu.Unlock()
		_ = pc.c.Close()
		return
	}
	p.idle = append(p.idle, pc)
	p.mu.Unlock()
}

// close shuts the pool: idle connections are closed and future gets
// fail. In-flight connections are closed by their users.
func (p *pool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, pc := range idle {
		_ = pc.c.Close()
	}
}
