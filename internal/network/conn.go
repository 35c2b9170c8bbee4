package network

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// poolConns is the number of multiplexed data connections kept per
// peer. Flows (query, exchange) hash onto pool members, so one wide
// shuffle does not serialize everything behind a single socket.
const poolConns = 2

// connPool is the fixed set of connections one node keeps to one peer.
// Connections are dialed up front (SetPeer pre-dials asynchronously, so
// connection setup is charged to membership changes, not to the first
// Send of a query) and redialed on demand with bounded, jittered
// backoff so a restarting peer is not hammered.
// Acks have a connection of their own, whose reader only applies them:
// behind data writes, two read loops could each wait on a write the
// other's peer is not reading.
type connPool struct {
	peer  int
	addr  string
	slots []*poolConn // data, by flow hash
	acks  *poolConn
}

// poolConn is one pooled connection. The mutex serializes writes (a
// batch is one contiguous Write under it) and guards redial state.
type poolConn struct {
	mu       sync.Mutex
	c        net.Conn
	fails    int       // consecutive dial failures
	nextDial time.Time // backoff gate for the next dial attempt
}

// dial backoff tuning: 5ms doubling to 1s, ±25% deterministic jitter.
const (
	dialBackoffBase = 5 * time.Millisecond
	dialBackoffMax  = time.Second
)

func newConnPool(peer int, addr string) *connPool {
	p := &connPool{peer: peer, addr: addr, slots: make([]*poolConn, poolConns), acks: &poolConn{}}
	for i := range p.slots {
		p.slots[i] = &poolConn{}
	}
	return p
}

// slot returns the pool member a flow hash lands on.
func (p *connPool) slot(h uint64) *poolConn {
	return p.slots[h%uint64(len(p.slots))]
}

// getLocked returns the slot's live connection, dialing if necessary.
// Dial failures arm an exponential, jittered backoff window during
// which further attempts fail fast instead of re-dialing a dead peer.
func (pc *poolConn) getLocked(addr string, peer int) (net.Conn, error) {
	if pc.c != nil {
		return pc.c, nil
	}
	if now := time.Now(); now.Before(pc.nextDial) {
		return nil, fmt.Errorf("network: dial node %d (%s) backing off %v after %d failures",
			peer, addr, pc.nextDial.Sub(now).Round(time.Millisecond), pc.fails)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		pc.fails++
		pc.nextDial = time.Now().Add(dialBackoff(pc.fails, peer))
		return nil, fmt.Errorf("network: dial node %d (%s): %w", peer, addr, err)
	}
	pc.fails = 0
	pc.nextDial = time.Time{}
	pc.c = c
	return c, nil
}

// write sends buf as one contiguous write on the slot's connection,
// dialing first if needed. On a write error the connection is dropped
// so the next attempt redials.
func (pc *poolConn) write(addr string, peer int, buf []byte) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	c, err := pc.getLocked(addr, peer)
	if err != nil {
		return err
	}
	if _, err := c.Write(buf); err != nil {
		c.Close()
		pc.c = nil
		return err
	}
	return nil
}

// drop invalidates the slot's connection after an error.
func (pc *poolConn) drop() {
	pc.mu.Lock()
	if pc.c != nil {
		pc.c.Close()
		pc.c = nil
	}
	pc.mu.Unlock()
}

// predial dials the slot if it has no connection, respecting backoff.
// Failures only arm the backoff window; the caller does not care.
func (pc *poolConn) predial(addr string, peer int) {
	pc.mu.Lock()
	_, _ = pc.getLocked(addr, peer)
	pc.mu.Unlock()
}

// all returns every pooled connection, the ack connection last.
func (p *connPool) all() []*poolConn { return append(append([]*poolConn(nil), p.slots...), p.acks) }

// closeAll closes every pooled connection.
func (p *connPool) closeAll() {
	for _, pc := range p.all() {
		pc.drop()
	}
}

// dialBackoff is the wait before dial attempt fails+1: exponential from
// dialBackoffBase capped at dialBackoffMax, with ±25% jitter drawn
// deterministically from (peer, fails) so a mesh of nodes redialing one
// restarted peer decorrelates without a stateful RNG.
func dialBackoff(fails, peer int) time.Duration {
	d := dialBackoffBase
	for i := 1; i < fails && d < dialBackoffMax; i++ {
		d *= 2
	}
	if d > dialBackoffMax {
		d = dialBackoffMax
	}
	h := uint64(peer)*0x9e3779b97f4a7c15 + uint64(fails)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	frac := float64(h>>11)/float64(1<<53) - 0.5 // [-0.5, 0.5)
	return d + time.Duration(frac*0.5*float64(d))
}

// flowHash hashes a flow's coordinates onto a stable 64-bit value used
// for conn-pool slot selection; all streams of one (query, exchange)
// share a slot so per-stream frame order survives multiplexing.
func flowHash(query, exchange int) uint64 {
	h := uint64(query)*0x9e3779b97f4a7c15 ^ uint64(exchange)*0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
