package network

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/faults"
	"repro/internal/iterator"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// TCP transport: the claims-node daemon runs one TCPNode per process.
// A frame is written when it is sent: Send encodes the block once into
// a wire frame (wire.go) and writes it before returning, on one of a
// small fixed pool of connections per peer pair (conn.go) dialed ahead
// of traffic at SetPeer time. Writes on different connections run in
// parallel; the connection's mutex orders the writes on one.
//
// Every exchange is keyed by (queryID, exchangeID): plan exchange ids
// repeat across queries (and across concurrent queries), so the query
// id — process-unique on the submitting master — namespaces the whole
// dataflow. Everything the node holds for one key lives in one record
// (exchangeRec): concurrent queries on one node mesh never share an
// inbox, a sequence-number stream, or an abort flag.
//
// Every data/eof frame carries a per-stream sequence number (stream =
// query × exchange × destination instance × source node) and a CRC of
// its payload. The receiver applies frames strictly in sequence order,
// so retransmissions and injected duplicates never double-apply and a
// frame lost inside a sender's window never lets its successors jump
// the gap; corrupted frames fail the checksum and are dropped, forcing
// a retransmit.
//
// One protocol and one flow control run on a socket: the per-stream
// send window (window.go), whose acks carry receipt and credit. The
// receiving loop is the per-node "merging thread" of Appendix Algorithm
// 5: it keeps draining the socket into inboxes even while the consuming
// segments are fully shrunk. It never waits on an inbox: a full inbox
// withholds its streams' credit until a Recv makes room, so it holds at
// most its bound plus windowFrames blocks per producer node, and a
// stalled consumer stalls only its own streams, never the other flows
// sharing the connection. The time a producer waits for that credit is
// surfaced as net.stall_ns.
type TCPNode struct {
	id    int
	ln    net.Listener
	peers map[int]string // node id → address

	flts  atomic.Pointer[faults.Injector]
	retry atomic.Pointer[RetryPolicy]
	epoch atomic.Uint32

	statBatches atomic.Int64
	statBytes   atomic.Int64
	statStallNs atomic.Int64
	statAckErrs atomic.Int64

	// mu is a leaf: held for one operation on the maps below, never
	// while taking a record, window or connection lock.
	mu        sync.Mutex
	pools     map[int]*connPool
	accepted  []net.Conn
	exchanges map[exchangeKey]*exchangeRec
	closed    bool
	wg        sync.WaitGroup
}

// exchangeKey identifies one query's exchange on a node.
type exchangeKey struct {
	query    int
	exchange int
}

// streamKey identifies one sequence-numbered stream: the frames one
// source node sends to one consumer instance of an exchange.
type streamKey struct {
	query    int
	exchange int
	instance int
	src      int
}

// exchangeRec is everything one node holds for one (query, exchange):
// the receiving half (consumer inboxes, per-stream watermarks), the
// sending half (a send window per destination) and what both share
// (scope, abort flag).
// RegisterInbox, NewOutbox, AbortExchange and SetExchangeScope create it
// on first mention; nothing that arrives on a socket does.
// ReleaseExchange deletes and empties it in one step, so a frame or ack
// still on the wire finds no record or a released one and is dropped —
// there is no second table a late arrival could re-populate.
type exchangeRec struct {
	n         *TCPNode
	key       exchangeKey
	hash      uint64      // conn-pool slot selector, stable per flow
	stallSpan string      // built once: a credit wait's span costs no string
	aborted   atomic.Bool // set by AbortExchange
	// scope counts both halves' events. The first non-nil scope attached
	// wins, so senders and read loops load it without a lock.
	scope atomic.Pointer[telemetry.Scope]

	mu       sync.Mutex
	released bool
	inboxes  map[int]*Inbox       // by consumer instance
	streams  map[streamKey]uint64 // next expected seq per stream
	wins     map[int]*sendWindow  // by destination instance
}

// NewTCPNode starts listening on addr as node id. peers maps every node
// id (including this one) to its dial address; the listed peers are
// pre-dialed so connection setup is charged to startup, not to the
// first Send of a query.
func NewTCPNode(id int, addr string, peers map[int]string) (*TCPNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("network: listen %s: %w", addr, err)
	}
	n := &TCPNode{
		id: id, ln: ln, peers: peers,
		pools:     make(map[int]*connPool),
		exchanges: make(map[exchangeKey]*exchangeRec),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	for pid, paddr := range peers {
		n.SetPeer(pid, paddr)
	}
	return n, nil
}

// Addr returns the node's bound listen address.
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// ID returns the node's id in the mesh.
func (n *TCPNode) ID() int { return n.id }

// NetStats reports node-lifetime wire totals: writes, frames they
// carried, bytes on the wire, the cumulative time producers waited for
// credit (send windows), and ack writes lost after retry. Acks are not
// counted. Every write carries one frame, so the first two are equal.
func (n *TCPNode) NetStats() (batches, frames, bytes int64, stall time.Duration, ackErrs int64) {
	batches = n.statBatches.Load()
	return batches, batches, n.statBytes.Load(),
		time.Duration(n.statStallNs.Load()), n.statAckErrs.Load()
}

// SetPeer installs or updates the dial address of a peer node and
// pre-dials its connection pool in the background. A pool dialed to an
// address that changed is dropped and redialed — this is how a
// membership view update rewires the fabric around a node that rejoined
// on a new ephemeral port.
func (n *TCPNode) SetPeer(id int, addr string) {
	n.mu.Lock()
	if n.peers == nil {
		n.peers = make(map[int]string)
	}
	var stale *connPool
	if p, ok := n.pools[id]; ok && n.peers[id] != addr {
		delete(n.pools, id)
		stale = p
	}
	n.peers[id] = addr
	if _, ok := n.pools[id]; !ok && !n.closed {
		p := newConnPool(id, addr)
		n.pools[id] = p
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			for _, pc := range p.all() {
				pc.predial(addr, id)
			}
		}()
	}
	n.mu.Unlock()
	if stale != nil {
		stale.closeAll()
	}
}

// DropPeer forgets a peer's address and closes its connection pool.
// Subsequent sends to the peer fail at dial time instead of waiting out
// TCP timeouts against a dead address.
func (n *TCPNode) DropPeer(id int) {
	n.mu.Lock()
	delete(n.peers, id)
	p, ok := n.pools[id]
	delete(n.pools, id)
	n.mu.Unlock()
	if ok {
		p.closeAll()
	}
}

// OpenExchanges counts the exchange records the node still holds. Zero
// after every query released its exchanges — tests and the /metrics
// surface use it to prove teardown leaves nothing behind.
func (n *TCPNode) OpenExchanges() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.exchanges)
}

// SetFaults attaches a fault injector consulted on every outgoing
// data or eof frame.
func (n *TCPNode) SetFaults(j *faults.Injector) { n.flts.Store(j) }

// SetRetryPolicy overrides the retransmission policy (default
// DefaultRetryPolicy).
func (n *TCPNode) SetRetryPolicy(p RetryPolicy) {
	p = p.withDefaults()
	n.retry.Store(&p)
}

func (n *TCPNode) faults() *faults.Injector { return n.flts.Load() }

func (n *TCPNode) policy() RetryPolicy {
	if p := n.retry.Load(); p != nil {
		return *p
	}
	return DefaultRetryPolicy
}

// enter puts a task on the node's waitgroup unless the node is closing
// (closed is set under mu before Close waits).
func (n *TCPNode) enter() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.wg.Add(1)
	return true
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.accepted = append(n.accepted, c)
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.readLoop(c)
		}()
	}
}

// record returns the exchange's record, creating it on first mention.
// On a closed node it is born released and stays out of the table.
func (n *TCPNode) record(k exchangeKey) *exchangeRec {
	n.mu.Lock()
	defer n.mu.Unlock()
	ex, ok := n.exchanges[k]
	if !ok {
		ex = &exchangeRec{
			n: n, key: k,
			hash:      flowHash(k.query, k.exchange),
			stallSpan: "net.stall ex" + strconv.Itoa(k.exchange),
			released:  n.closed,
			inboxes:   make(map[int]*Inbox),
			streams:   make(map[streamKey]uint64),
			wins:      make(map[int]*sendWindow),
		}
		if !n.closed {
			n.exchanges[k] = ex
		}
	}
	return ex
}

// lookup returns the exchange's record or nil: what bytes off a socket
// go through, so a peer can neither create nor resurrect a record.
func (n *TCPNode) lookup(k exchangeKey) *exchangeRec {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.exchanges[k]
}

// RegisterInbox declares that this node hosts consumer instance
// (query, exchange, instance) expecting nProducers streams with the
// given schema. Must be called before producers start sending. On an
// exchange already aborted the inbox is born abandoned.
func (n *TCPNode) RegisterInbox(query, exchange, instance, nProducers int,
	sch *types.Schema, bufBlocks int, tracker *block.Tracker) *Inbox {
	in := newInbox(nProducers, bufBlocks, sch, tracker)
	ex := n.record(exchangeKey{query, exchange})
	in.grant = ex.regrant
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.released || ex.aborted.Load() {
		in.Abandon()
	}
	if !ex.released {
		ex.inboxes[instance] = in
	}
	return in
}

// SetExchangeScope attaches the telemetry scope the exchange's events
// on this node are counted on; TCPOutbox.SetScope is the same setter.
func (n *TCPNode) SetExchangeScope(query, exchange int, sc *telemetry.Scope) {
	n.record(exchangeKey{query, exchange}).setScope(sc)
}

func (ex *exchangeRec) setScope(sc *telemetry.Scope) {
	if sc != nil {
		ex.scope.CompareAndSwap(nil, sc)
	}
}

// AbortExchange abandons one query's exchange: pending sends fail
// immediately, future sends fail fast, and the exchange's inboxes
// on this node unblock and discard. The engine calls it on every node
// when a query errors, so no goroutine stays wedged on a dead dataflow.
// Other queries' exchanges — same plan exchange id included — are
// untouched.
func (n *TCPNode) AbortExchange(query, exchange int) {
	ex := n.record(exchangeKey{query, exchange})
	ex.aborted.Store(true)
	err := fmt.Errorf("network: exchange %d aborted", exchange)
	ex.mu.Lock()
	defer ex.mu.Unlock()
	// Neither blocks: each takes only its own lock, never held across a write.
	for _, in := range ex.inboxes {
		in.Abandon()
	}
	for _, w := range ex.wins {
		w.fail(err)
	}
}

// ReleaseExchange drops the record of (query, exchange) and everything
// it owns, so a long-lived serving node does not accrete one per query.
func (n *TCPNode) ReleaseExchange(query, exchange int) {
	k := exchangeKey{query, exchange}
	n.mu.Lock()
	ex := n.exchanges[k]
	delete(n.exchanges, k)
	n.mu.Unlock()
	if ex != nil {
		ex.release(fmt.Errorf("network: exchange %d released", exchange))
	}
}

// release empties the record: the inboxes it drops are abandoned (the
// blocks already decoded into them give their tracker bytes back), a
// late frame finds no inbox and is dropped undecoded (charging no
// tracker), a later write is refused, and leftover send windows fail
// with err so their producers wake and their timers stop.
func (ex *exchangeRec) release(err error) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.released = true
	for _, in := range ex.inboxes {
		in.Abandon() // as in AbortExchange
	}
	for _, w := range ex.wins {
		w.fail(err)
	}
	ex.inboxes, ex.streams, ex.wins = nil, nil, nil
}

// applyVerdict classifies one arriving frame against its stream's
// watermark.
type applyVerdict int

const (
	applyApply  applyVerdict = iota // in order: apply and advance
	applyDup                        // below the watermark: suppress, re-ack
	applyGap                        // beyond the watermark: discard, re-ack
	applyIgnore                     // no inbox, or mid-stream frame of an unknown stream
)

// accept finds the frame's inbox and decides the frame's fate in one
// critical section, advancing the stream watermark when it is applied.
// Frames apply strictly in sequence order: under the windowed sender a
// dropped frame leaves a gap, and frames behind the gap are discarded
// (go-back-N re-delivers them in order) instead of applied early — the
// discard is what keeps "applied" equal to "all predecessors applied",
// which the cumulative ack asserts. Outbox sequence bases are node-wide
// epochs shifted left 32 bits, so the first frame of any stream has
// zero low bits; that is how a fresh stream is told apart from a gap.
func (ex *exchangeRec) accept(k streamKey, seq uint64) (*Inbox, applyVerdict, uint64) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	in := ex.inboxes[k.instance]
	if in == nil {
		return nil, applyIgnore, 0 // unregistered instance, or released
	}
	next, ok := ex.streams[k]
	switch {
	case !ok && seq&0xffffffff != 0:
		// The stream's earlier frames were lost: wait for a
		// retransmission from its start.
		return in, applyIgnore, 0
	case ok && seq < next:
		return in, applyDup, next - 1
	case ok && seq > next && seq&0xffffffff != 0:
		return in, applyGap, next - 1
	}
	// In order, a stream's first frame, or a new epoch's stream start.
	ex.streams[k] = seq + 1
	return in, applyApply, seq
}

// ack is what a stream is owed: its receipt and credit (0: none).
type ack struct{ seq, credit uint64 }

// readLoop drains one accepted connection frame by frame (readFrame):
// a malformed header (bad magic, length out of bounds) means the stream
// is desynchronized and the connection is dropped — peers redial. Acks
// are collected per stream and written when the read buffer runs dry.
// The buffer is one engine frame (64 KB): a larger payload is read
// straight into its arena buffer.
func (n *TCPNode) readLoop(c net.Conn) {
	defer c.Close()
	r := bufio.NewReaderSize(c, 64<<10)
	var hdr [frameHdrLen]byte
	acks := make(map[streamKey]ack)
	for {
		h, payload, err := readFrame(r, &hdr)
		if err != nil {
			n.flushAcks(acks)
			return
		}
		n.handleFrame(h, payload, acks)
		block.PutBuf(payload)
		if r.Buffered() == 0 {
			n.flushAcks(acks)
		}
	}
}

// handleFrame processes one frame: one record lookup under the node
// lock, then only the record's lock. It never waits: a data frame goes
// into its inbox even at the bound, which the credit of the frame's ack
// keeps instead. The ack is recorded in acks (one per stream) for the
// caller to flush.
func (n *TCPNode) handleFrame(h frameHeader, pl []byte, acks map[streamKey]ack) {
	ex := n.lookup(exchangeKey{h.query, h.exchange})
	if ex == nil {
		return // stray frame or late ack for an unregistered or released exchange
	}
	if h.kind == frameAck {
		if len(pl) != ackPayloadLen {
			return
		}
		// Acks for already-drained windows advance nothing.
		ex.mu.Lock()
		w := ex.wins[h.inst]
		ex.mu.Unlock()
		if w != nil {
			w.advance(h.seq, binary.LittleEndian.Uint64(pl))
		}
		return
	}
	scope := ex.scope.Load()
	if crc32.Checksum(pl, crcTable) != h.sum {
		// Corrupted in transit: drop without acking so the sender
		// retransmits. This is the recovery path injected Corrupt
		// faults exercise.
		if scope != nil {
			scope.Counter(telemetry.CtrNetCorruptDropped).Inc()
		}
		return
	}
	sk := streamKey{h.query, h.exchange, h.inst, h.src}
	in, verdict, seq := ex.accept(sk, h.seq)
	if verdict == applyIgnore {
		return
	}
	// Duplicates and gaps re-ack the watermark: an ack may have been lost.
	var b *block.Block
	switch verdict {
	case applyDup:
		if scope != nil {
			scope.Counter(telemetry.CtrNetDupDropped).Inc()
			scope.Emit(telemetry.Recovery{Node: n.id, Action: "dup-drop"})
		}
	case applyGap:
		if scope != nil {
			scope.Counter(telemetry.CtrNetGapDropped).Inc()
		}
	case applyApply:
		switch h.kind {
		case frameEOF:
			in.producerDone()
		case frameData:
			b, _ = block.Decode(in.sch, pl, in.tracker)
		}
	}
	a := acks[sk]
	a.seq = seq
	if in.deliver(b, sk) {
		a.credit = max(a.credit, seq+windowFrames)
	}
	acks[sk] = a
}

// flushAcks sends every recorded ack and clears the map.
func (n *TCPNode) flushAcks(acks map[streamKey]ack) {
	for sk, a := range acks {
		n.sendAck(sk, a)
	}
	clear(acks)
}

// regrant sends the credit the read loop withheld from streams into a
// full inbox; the Recv that made room calls it.
func (ex *exchangeRec) regrant(sks []streamKey) {
	for _, sk := range sks {
		ex.mu.Lock()
		next, ok := ex.streams[sk]
		ex.mu.Unlock()
		if ok {
			ex.n.sendAck(sk, ack{seq: next - 1, credit: next - 1 + windowFrames})
		}
	}
}

// sendAck writes one ack frame on the source node's ack connection,
// which carries nothing else, so an ack never waits behind data. A
// failed write dropped the connection, so one retry redials. A receipt
// lost even then costs a retransmission (its duplicate is acked again),
// a lost grant leaves the stream to the peer-loss path; either is
// counted.
func (n *TCPNode) sendAck(sk streamKey, a ack) {
	var buf [frameHdrLen + ackPayloadLen]byte
	binary.LittleEndian.PutUint64(buf[frameHdrLen:], a.credit)
	stampFrame(buf[:], frameHeader{
		query: sk.query, exchange: sk.exchange, inst: sk.instance,
		kind: frameAck, src: n.id, seq: a.seq,
	})
	p, err := n.pool(sk.src)
	if err == nil {
		if p.acks.write(p.addr, sk.src, buf[:]) == nil || p.acks.write(p.addr, sk.src, buf[:]) == nil {
			return
		}
	}
	n.statAckErrs.Add(1)
	if ex := n.lookup(exchangeKey{sk.query, sk.exchange}); ex != nil {
		if scope := ex.scope.Load(); scope != nil {
			scope.Counter(telemetry.CtrNetAckSendErrors).Inc()
		}
	}
}

// pool returns (creating if necessary) the connection pool for a peer.
// SetPeer normally creates pools ahead of traffic; the lazy path covers
// peers installed by direct map assignment before the node saw them.
func (n *TCPNode) pool(peer int) (*connPool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.pools[peer]; ok {
		return p, nil
	}
	if n.closed {
		return nil, fmt.Errorf("network: node %d closed", n.id)
	}
	addr, known := n.peers[peer]
	if !known {
		return nil, fmt.Errorf("%w %d (dropped from the peer set?)", errNoAddress, peer)
	}
	p := newConnPool(peer, addr)
	n.pools[peer] = p
	return p, nil
}

// TCPOutbox is the producer side of an exchange over TCP. It holds its
// record, so a Send resolves nothing by key.
type TCPOutbox struct {
	ex            *exchangeRec
	consumerNodes []int         // node id per destination instance
	seqs          []uint64      // next seq per destination
	wins          []*sendWindow // lazily per destination
}

// NewOutbox creates an outbox sending from this node to the consumer
// instances of (query, exchange) located on the given nodes. Sequence
// numbers are based on a node-wide epoch shifted left 32 bits, so
// streams of consecutive queries reusing an exchange id never collide —
// and the receiver can tell a fresh stream's start (zero low bits) from
// a mid-stream gap.
func (n *TCPNode) NewOutbox(query, exchange int, consumerNodes []int) *TCPOutbox {
	base := uint64(n.epoch.Add(1)) << 32
	o := &TCPOutbox{
		ex:            n.record(exchangeKey{query, exchange}),
		consumerNodes: consumerNodes,
		seqs:          make([]uint64, len(consumerNodes)),
	}
	for dest := range consumerNodes {
		o.seqs[dest] = base
	}
	return o
}

// SetScope is SetExchangeScope for the outbox's exchange.
func (o *TCPOutbox) SetScope(sc *telemetry.Scope) { o.ex.setScope(sc) }

// Destinations implements iterator.Outbox.
func (o *TCPOutbox) Destinations() int { return len(o.consumerNodes) }

// header starts the next frame toward dest, consuming its sequence number.
func (o *TCPOutbox) header(dest int, kind byte) frameHeader {
	seq := o.seqs[dest]
	o.seqs[dest]++
	return frameHeader{
		query: o.ex.key.query, exchange: o.ex.key.exchange, inst: dest,
		kind: kind, src: o.ex.n.id, seq: seq,
	}
}

// Send implements iterator.Outbox. The block is encoded once, into the
// frame the send window keeps until it is received.
func (o *TCPOutbox) Send(dest int, b *block.Block) error {
	return o.send(o.header(dest, frameData), newFrameBuf(b))
}

// CloseSend implements iterator.Outbox: an end-of-stream frame per
// destination, then every window drained, so a stream failure surfaces
// here at the latest.
func (o *TCPOutbox) CloseSend() error {
	var firstErr error
	for dest := range o.consumerNodes {
		if err := o.send(o.header(dest, frameEOF), newFrameBuf(nil)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, w := range o.wins {
		if w == nil {
			continue
		}
		if err := w.waitDrained(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// send ships one frame whose payload is already in buf (newFrameBuf),
// which it takes: stamped once, into the window once the stream has
// credit, then written. If the stream failed, buf goes back.
func (o *TCPOutbox) send(h frameHeader, buf []byte) error {
	h.sum = crc32.Checksum(buf[frameHdrLen:], crcTable)
	stampFrame(buf, h)
	w, err := o.window(h)
	if err == nil {
		f := &wframe{frameHeader: h, buf: buf}
		if err = w.add(f); err == nil {
			return w.attempt(f, 0)
		}
	}
	block.PutBuf(buf)
	return err
}

// transmit writes one stamped frame to a peer: refused once the record
// is released, otherwise one write on the flow's pooled connection.
func (ex *exchangeRec) transmit(peer int, frame []byte) error {
	ex.mu.Lock()
	released := ex.released
	ex.mu.Unlock()
	if released {
		return fmt.Errorf("network: exchange %d released", ex.key.exchange)
	}
	n := ex.n
	// All traffic of one flow shares a pool slot, so per-stream frame
	// order survives the multiplexing.
	p, err := n.pool(peer)
	if err == nil {
		err = p.slot(ex.hash).write(p.addr, peer, frame)
	}
	n.statBatches.Add(1)
	n.statBytes.Add(int64(len(frame)))
	if scope := ex.scope.Load(); scope != nil {
		scope.Counter(telemetry.CtrNetBatches).Inc()
		scope.Counter(telemetry.CtrNetBatchFrames).Inc()
	}
	return err
}

// startStall opens the net.stall span of a producer about to wait for
// the credit to send a frame of frameBytes: nil without a scope, or
// with spans off.
func (ex *exchangeRec) startStall(frameBytes int) *telemetry.Span {
	scope := ex.scope.Load()
	if scope == nil {
		return nil
	}
	return scope.StartSpan(ex.stallSpan, "net").WithNode(ex.n.id).WithBytes(int64(frameBytes))
}

// stalled accounts one producer's wait for credit: the node's stall
// total, net.stall_ns, ex.<id>.stall_ns, net.stall_seconds and the span
// startStall opened.
func (ex *exchangeRec) stalled(stall time.Duration, sp *telemetry.Span) {
	ex.n.statStallNs.Add(int64(stall))
	if scope := ex.scope.Load(); scope != nil {
		scope.Counter(telemetry.CtrNetStallNs).Add(int64(stall))
		scope.Counter(telemetry.ExCtr(ex.key.exchange, "stall_ns")).Add(int64(stall))
		scope.Histogram(telemetry.HistNetStall, telemetry.DurationBuckets).Observe(stall.Seconds())
	}
	sp.End()
}

// window returns the send window h goes through — creating it on first
// use, on the record, where acks and teardown find it — or why the
// stream takes no more frames.
func (o *TCPOutbox) window(h frameHeader) (*sendWindow, error) {
	ex, peer := o.ex, o.consumerNodes[h.inst]
	if ex.aborted.Load() {
		return nil, fmt.Errorf("network: exchange %d aborted", h.exchange)
	}
	if inj := ex.n.faults(); inj.Severed(ex.n.id, peer) {
		o.emitFault("sever", peer, h.seq, 0)
		return nil, fmt.Errorf("network: link %d->%d severed", ex.n.id, peer)
	}
	if o.wins == nil {
		o.wins = make([]*sendWindow, len(o.consumerNodes))
	}
	if w := o.wins[h.inst]; w != nil {
		return w, nil
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if ex.released {
		return nil, fmt.Errorf("network: exchange %d released", ex.key.exchange)
	}
	w := newSendWindow(o, h.inst, peer, h.seq)
	ex.wins[h.inst] = w
	o.wins[h.inst] = w
	return w, nil
}

// transmitFrame writes one transmission attempt of an in-flight frame,
// consulting the fault injector with the frame's coordinates — the same
// per-(seq, attempt) verdicts as v1's stop-and-wait loop, so recorded
// fault schedules keep their meaning. Corrupt writes a copy with a
// poisoned checksum, Dup writes twice, Drop writes nothing.
func (o *TCPOutbox) transmitFrame(peer int, f *wframe, attempt int) error {
	n, exchange := o.ex.n, o.ex.key.exchange
	var v faults.FrameVerdict
	if peer != n.id {
		v = n.faults().Frame(n.id, peer, exchange, f.seq, attempt)
	}
	if v.Delay > 0 {
		o.emitFault("delay", peer, f.seq, v.Delay)
		time.Sleep(v.Delay)
	}
	if v.Drop {
		o.emitFault("drop", peer, f.seq, 0)
		return nil // never reaches the wire; the timer retransmits
	}
	buf := f.buf
	if v.Corrupt {
		o.emitFault("corrupt", peer, f.seq, 0)
		h := f.frameHeader
		h.sum ^= 0xDEAD
		buf = append([]byte(nil), buf...)
		stampFrame(buf, h)
	}
	err := o.ex.transmit(peer, buf)
	if v.Dup {
		o.emitFault("dup", peer, f.seq, 0)
		_ = o.ex.transmit(peer, buf)
	}
	return err
}

func (o *TCPOutbox) emitFault(kind string, peer int, seq uint64, d time.Duration) {
	emitFault(o.ex.scope.Load(), kind, o.ex.n.id, peer, o.ex.key.exchange, seq, d)
}

// Close shuts the node down: every record is released (inboxes are
// abandoned, send windows die), the listener and all pooled and accepted
// connections close, then every goroutine is joined.
func (n *TCPNode) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	pools, accepted, exchanges := n.pools, n.accepted, n.exchanges
	n.pools = make(map[int]*connPool)
	n.accepted = nil
	n.exchanges = make(map[exchangeKey]*exchangeRec)
	n.mu.Unlock()
	// Fail pending reliable sends so no Send outlives the node.
	err := fmt.Errorf("network: node %d closed", n.id)
	for _, ex := range exchanges {
		ex.release(err)
	}
	n.ln.Close()
	for _, p := range pools {
		p.closeAll()
	}
	for _, c := range accepted {
		c.Close()
	}
	n.wg.Wait()
}

var _ iterator.Outbox = (*TCPOutbox)(nil)
