package network

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"net"
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
// Wire protocol v2 (wire.go) coalesces frames into batches — one write
// syscall per batch — and multiplexes each peer pair over a small fixed
// pool of connections (conn.go) dialed ahead of traffic at SetPeer
// time. A per-node transmit scheduler (flow.go) rotates the wire across
// active (query, exchange) flows so one wide shuffle cannot
// incast-starve the rest; the waiting is surfaced as net.stall_ns.
//
// Every exchange is keyed by (queryID, exchangeID): plan exchange ids
// repeat across queries (and across concurrent queries), so the query
// id — process-unique on the submitting master — namespaces the whole
// dataflow. Concurrent queries on one node mesh never share an inbox,
// a sequence-number stream, or an abort channel.
//
// Every data/eof frame carries a per-stream sequence number (stream =
// query × exchange × destination instance × source node) and a CRC of
// its payload. The receiver applies frames strictly in sequence order,
// so retransmissions and injected duplicates never double-apply and a
// frame lost inside a sender's window never lets its successors jump
// the gap; corrupted frames fail the checksum and are dropped, forcing
// a retransmit.
//
// When a fault injector is attached (or a retry policy is forced), the
// node runs its reliable path: a per-stream sliding window
// (window.go) keeps up to WireConfig.Window frames in flight, the
// receiver acknowledges cumulatively, and a pump goroutine retransmits
// go-back-N from the oldest unacked frame on timeout. Without an
// injector the wire is a healthy TCP socket, so Send stays
// fire-and-forget and pays no round trip.
//
// The receiving loop is the per-node "merging thread" of Appendix
// Algorithm 5: it keeps draining the socket into inboxes even while the
// consuming segments are fully shrunk. Acknowledgements recorded while
// a batch is processed are flushed BEFORE any blocking inbox insert:
// backpressure propagates to senders through withheld window space,
// while acks themselves are never stuck behind a full inbox — which
// would deadlock two nodes exchanging data in both directions.
type TCPNode struct {
	id    int
	ln    net.Listener
	peers map[int]string // node id → address

	flts   atomic.Pointer[faults.Injector]
	retry  atomic.Pointer[RetryPolicy]
	forced atomic.Bool // reliable path on even without an injector
	epoch  atomic.Uint32
	wcfg   atomic.Pointer[WireConfig]

	flow flowScheduler

	statBatches atomic.Int64
	statFrames  atomic.Int64
	statBytes   atomic.Int64
	statStallNs atomic.Int64
	statAckErrs atomic.Int64

	mu       sync.Mutex
	pools    map[int]*connPool
	accepted []net.Conn
	inboxes  map[inboxKey]*Inbox
	schemas  map[exchangeKey]*types.Schema
	trackers map[exchangeKey]*block.Tracker
	scopes   map[exchangeKey]*telemetry.Scope
	streams  map[streamKey]uint64 // next expected seq per stream
	aborts   map[exchangeKey]chan struct{}
	stagers  map[stageKey]*stager
	closed   bool
	wg       sync.WaitGroup

	winMu sync.Mutex
	wins  map[winKey]*sendWindow
}

// exchangeKey identifies one query's exchange on a node: plan exchange
// ids repeat across queries, so every per-exchange structure is keyed
// by the pair.
type exchangeKey struct {
	query    int
	exchange int
}

type inboxKey struct {
	query    int
	exchange int
	instance int
}

type streamKey struct {
	query    int
	exchange int
	instance int
	src      int
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
		pools:    make(map[int]*connPool),
		inboxes:  make(map[inboxKey]*Inbox),
		schemas:  make(map[exchangeKey]*types.Schema),
		trackers: make(map[exchangeKey]*block.Tracker),
		scopes:   make(map[exchangeKey]*telemetry.Scope),
		streams:  make(map[streamKey]uint64),
		aborts:   make(map[exchangeKey]chan struct{}),
		stagers:  make(map[stageKey]*stager),
		wins:     make(map[winKey]*sendWindow),
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

// SetWireConfig tunes the wire layer (connection pool size, send
// window, coalescing). Call before traffic flows; connection pools
// already dialed keep their size.
func (n *TCPNode) SetWireConfig(c WireConfig) {
	c = c.withDefaults()
	n.wcfg.Store(&c)
}

func (n *TCPNode) wireCfg() WireConfig {
	if p := n.wcfg.Load(); p != nil {
		return *p
	}
	return DefaultWireConfig
}

// NetStats reports node-lifetime wire totals: batches written, frames
// they carried, bytes on the wire, cumulative transmit-scheduler stall,
// and ack writes lost after retry. frames/batches is the realized
// coalescing factor.
func (n *TCPNode) NetStats() (batches, frames, bytes int64, stall time.Duration, ackErrs int64) {
	return n.statBatches.Load(), n.statFrames.Load(), n.statBytes.Load(),
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
		p := newConnPool(id, addr, n.wireCfg().PoolSize)
		n.pools[id] = p
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			for _, pc := range p.slots {
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

// Peers returns a copy of the node's current peer address map.
func (n *TCPNode) Peers() map[int]string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[int]string, len(n.peers))
	for id, addr := range n.peers {
		out[id] = addr
	}
	return out
}

// OpenExchanges counts the per-exchange registrations the node still
// holds (inboxes, schemas, trackers, scopes, stream watermarks, abort
// channels, stagers, send windows). Zero after every query released its
// exchanges — tests and the /metrics surface use it to prove teardown
// leaves nothing behind.
func (n *TCPNode) OpenExchanges() int {
	n.winMu.Lock()
	nw := len(n.wins)
	n.winMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.inboxes) + len(n.schemas) + len(n.trackers) +
		len(n.scopes) + len(n.streams) + len(n.aborts) + len(n.stagers) + nw
}

// SetFaults attaches a fault injector consulted on every outgoing
// frame. Attach the SAME injector to every node of a mesh: an enabled
// injector switches the node into its reliable (windowed ack +
// retransmit) protocol, and senders and receivers must agree on it.
func (n *TCPNode) SetFaults(j *faults.Injector) { n.flts.Store(j) }

// SetRetryPolicy overrides the reliable-send policy and forces the
// reliable protocol on even without a fault injector (tests use it to
// exercise retry paths against real peer failures).
func (n *TCPNode) SetRetryPolicy(p RetryPolicy) {
	p = p.withDefaults()
	n.retry.Store(&p)
	n.forced.Store(true)
}

func (n *TCPNode) faults() *faults.Injector { return n.flts.Load() }

func (n *TCPNode) policy() RetryPolicy {
	if p := n.retry.Load(); p != nil {
		return *p
	}
	return DefaultRetryPolicy
}

// reliable reports whether the node runs the windowed ack + retransmit
// protocol.
func (n *TCPNode) reliable() bool {
	return n.forced.Load() || n.faults().Enabled()
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

// RegisterInbox declares that this node hosts consumer instance
// (query, exchange, instance) expecting nProducers streams with the
// given schema. Must be called before producers start sending.
func (n *TCPNode) RegisterInbox(query, exchange, instance, nProducers int,
	sch *types.Schema, bufBlocks int, tracker *block.Tracker) *Inbox {
	n.mu.Lock()
	defer n.mu.Unlock()
	in := newInbox(nProducers, bufBlocks, tracker)
	n.inboxes[inboxKey{query, exchange, instance}] = in
	n.schemas[exchangeKey{query, exchange}] = sch
	n.trackers[exchangeKey{query, exchange}] = tracker
	return in
}

// SetExchangeScope attaches the telemetry scope receiver-side events of
// an exchange (duplicate suppression, corrupt-frame drops, ack-write
// failures) are counted on.
func (n *TCPNode) SetExchangeScope(query, exchange int, sc *telemetry.Scope) {
	n.mu.Lock()
	n.scopes[exchangeKey{query, exchange}] = sc
	n.mu.Unlock()
}

// AbortExchange abandons one query's exchange: pending reliable sends
// fail immediately, future sends fail fast, and the exchange's inboxes
// on this node unblock and discard. The engine calls it on every node
// when a query errors, so no goroutine stays wedged on a dead dataflow.
// Other queries' exchanges — same plan exchange id included — are
// untouched.
func (n *TCPNode) AbortExchange(query, exchange int) {
	ek := exchangeKey{query, exchange}
	n.mu.Lock()
	ch, ok := n.aborts[ek]
	if !ok {
		ch = make(chan struct{})
		n.aborts[ek] = ch
	}
	select {
	case <-ch:
	default:
		close(ch)
	}
	var ins []*Inbox
	for k, in := range n.inboxes {
		if k.query == query && k.exchange == exchange {
			ins = append(ins, in)
		}
	}
	n.mu.Unlock()
	n.winMu.Lock()
	var ws []*sendWindow
	for k, w := range n.wins {
		if k.query == query && k.exchange == exchange {
			ws = append(ws, w)
		}
	}
	n.winMu.Unlock()
	for _, w := range ws {
		w.fail(fmt.Errorf("network: exchange %d aborted", exchange))
	}
	for _, in := range ins {
		in.Abandon()
	}
}

// ReleaseExchange drops every per-exchange structure of (query,
// exchange) — inboxes, schema, tracker, scope, stream watermarks,
// abort channel, stagers and any leftover send windows. The engine
// releases each exchange when its query completes; without this a
// long-lived serving node accretes one map entry per stream per query
// forever.
func (n *TCPNode) ReleaseExchange(query, exchange int) {
	ek := exchangeKey{query, exchange}
	n.mu.Lock()
	for k := range n.inboxes {
		if k.query == query && k.exchange == exchange {
			delete(n.inboxes, k)
		}
	}
	for k := range n.streams {
		if k.query == query && k.exchange == exchange {
			delete(n.streams, k)
		}
	}
	var sts []*stager
	for k, s := range n.stagers {
		if k.query == query && k.exchange == exchange {
			sts = append(sts, s)
			delete(n.stagers, k)
		}
	}
	delete(n.schemas, ek)
	delete(n.trackers, ek)
	delete(n.scopes, ek)
	delete(n.aborts, ek)
	n.mu.Unlock()
	n.winMu.Lock()
	for k := range n.wins {
		if k.query == query && k.exchange == exchange {
			delete(n.wins, k)
		}
	}
	n.winMu.Unlock()
	for _, s := range sts {
		s.discard()
	}
}

// abortCh returns the exchange's abort channel, creating it open.
func (n *TCPNode) abortCh(query, exchange int) chan struct{} {
	ek := exchangeKey{query, exchange}
	n.mu.Lock()
	defer n.mu.Unlock()
	ch, ok := n.aborts[ek]
	if !ok {
		ch = make(chan struct{})
		n.aborts[ek] = ch
	}
	return ch
}

func (n *TCPNode) inbox(query, exchange, instance int) (*Inbox, *types.Schema, *block.Tracker, *telemetry.Scope, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	in, ok := n.inboxes[inboxKey{query, exchange, instance}]
	if !ok {
		return nil, nil, nil, nil, fmt.Errorf("network: no inbox for query %d exchange %d instance %d", query, exchange, instance)
	}
	ek := exchangeKey{query, exchange}
	return in, n.schemas[ek], n.trackers[ek], n.scopes[ek], nil
}

// applyVerdict classifies one arriving frame against its stream's
// watermark.
type applyVerdict int

const (
	applyApply  applyVerdict = iota // in order: apply and advance
	applyDup                        // below the watermark: suppress, re-ack
	applyGap                        // beyond the watermark: discard, re-ack
	applyIgnore                     // mid-stream frame of an unknown stream
)

// applyOnce decides one frame's fate and advances the stream watermark
// when it is applied. Frames apply strictly in sequence order: under
// the windowed sender a dropped frame leaves a gap, and frames behind
// the gap are discarded (go-back-N re-delivers them in order) instead
// of applied early — the discard is what keeps "applied" equal to "all
// predecessors applied", which the cumulative ack asserts. Outbox
// sequence bases are node-wide epochs shifted left 32 bits, so the
// first frame of any stream has zero low bits; that is how a fresh
// stream reusing a released stream key is told apart from a gap.
func (n *TCPNode) applyOnce(k streamKey, seq uint64) (applyVerdict, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, live := n.inboxes[inboxKey{k.query, k.exchange, k.instance}]; !live {
		// Released between handleFrame's inbox lookup and here (a
		// cancelled query's frames are still on the wire when it tears
		// down): recording a watermark now would outlive the exchange.
		return applyIgnore, 0
	}
	next, ok := n.streams[k]
	switch {
	case !ok:
		if seq&0xffffffff != 0 {
			// The stream's earlier frames were lost (or it was released
			// mid-flight): wait for a retransmission from its start.
			return applyIgnore, 0
		}
		n.streams[k] = seq + 1
		return applyApply, seq
	case seq == next:
		n.streams[k] = seq + 1
		return applyApply, seq
	case seq < next:
		return applyDup, next - 1
	case seq&0xffffffff == 0:
		// A new epoch's stream start on a reused key.
		n.streams[k] = seq + 1
		return applyApply, seq
	default:
		return applyGap, next - 1
	}
}

// readLoop drains one accepted connection batch by batch. Each batch is
// read with a single ReadFull into a pooled arena buffer and its frames
// are handled in place; a malformed batch (bad magic, inconsistent
// lengths) means the stream is desynchronized and the connection is
// dropped — peers redial.
func (n *TCPNode) readLoop(c net.Conn) {
	defer c.Close()
	r := bufio.NewReaderSize(c, 256<<10)
	var bh [batchHdrLen]byte
	acks := make(map[streamKey]uint64)
	for {
		if _, err := io.ReadFull(r, bh[:]); err != nil {
			return
		}
		payloadLen, nFrames, err := parseBatchHeader(bh[:])
		if err != nil {
			return
		}
		payload := block.GetBuf(payloadLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			block.PutBuf(payload)
			return
		}
		err = walkBatch(payload, nFrames, func(h frameHeader, pl []byte) error {
			n.handleFrame(h, pl, acks)
			return nil
		})
		n.flushAcks(acks)
		block.PutBuf(payload)
		if err != nil {
			return
		}
	}
}

// handleFrame processes one frame of a batch. Cumulative acks are
// recorded in acks (keyed by stream, so many frames of one stream
// collapse to one ack) and flushed by the caller at batch end — or
// earlier, before any blocking inbox insert.
func (n *TCPNode) handleFrame(h frameHeader, pl []byte, acks map[streamKey]uint64) {
	if h.kind == frameAck {
		n.dispatchAck(winKey{h.query, h.exchange, h.inst}, h.seq)
		return
	}
	in, sch, trk, scope, err := n.inbox(h.query, h.exchange, h.inst)
	if err != nil {
		return // stray frame for an unregistered exchange
	}
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
	verdict, ackSeq := n.applyOnce(sk, h.seq)
	rel := n.reliable()
	switch verdict {
	case applyIgnore:
		return
	case applyDup:
		// Duplicate: suppress, but re-acknowledge the watermark — the
		// original ack may have been lost to the sender's timeout.
		if scope != nil {
			scope.Counter(telemetry.CtrNetDupDropped).Inc()
			scope.Emit(telemetry.Recovery{Node: n.id, Action: "dup-drop"})
		}
		if rel {
			acks[sk] = ackSeq
		}
		return
	case applyGap:
		// A predecessor is missing: discard and re-ack what is applied,
		// so the sender retransmits from the gap.
		if scope != nil {
			scope.Counter(telemetry.CtrNetGapDropped).Inc()
		}
		if rel {
			acks[sk] = ackSeq
		}
		return
	}
	if rel {
		acks[sk] = ackSeq
	}
	switch h.kind {
	case frameEOF:
		in.producerDone()
	case frameData:
		b, err := block.Decode(sch, pl, trk)
		if err == nil {
			if !in.tryPut(b) {
				// The insert is about to block on a full inbox: flush
				// recorded acks first so reverse-direction senders keep
				// advancing (see the type comment).
				n.flushAcks(acks)
				in.put(b)
			}
		}
	}
}

// flushAcks sends every recorded cumulative ack and clears the map.
func (n *TCPNode) flushAcks(acks map[streamKey]uint64) {
	for sk, seq := range acks {
		n.sendAck(sk.src, sk.query, sk.exchange, sk.instance, seq)
	}
	clear(acks)
}

// sendAck acknowledges stream (query, exchange, inst) up to and
// including seq back to the source node, as a single-frame batch
// written directly (acks skip the stager: window advance is
// latency-critical). A failed write already dropped the dead
// connection, so one retry redials; an ack lost even then costs the
// sender a retransmit timeout and is counted.
func (n *TCPNode) sendAck(src, query, exchange, inst int, seq uint64) {
	if !n.reliable() {
		return
	}
	var buf [batchHdrLen + frameHdrLen]byte
	putBatchHeader(buf[:], frameHdrLen, 1)
	putFrameHeader(buf[batchHdrLen:], frameHeader{
		query: query, exchange: exchange, inst: inst,
		kind: frameAck, src: n.id, seq: seq,
	})
	p, err := n.pool(src)
	if err != nil {
		return // the sender will time out and retransmit
	}
	pc := p.slot(flowHash(query, exchange))
	if pc.write(p.addr, src, buf[:]) == nil {
		return
	}
	if pc.write(p.addr, src, buf[:]) == nil {
		return
	}
	n.statAckErrs.Add(1)
	n.mu.Lock()
	scope := n.scopes[exchangeKey{query, exchange}]
	n.mu.Unlock()
	if scope != nil {
		scope.Counter(telemetry.CtrNetAckSendErrors).Inc()
	}
}

// dispatchAck advances the send window a cumulative ack addresses;
// acks for already-drained windows find no entry and are ignored.
func (n *TCPNode) dispatchAck(k winKey, seq uint64) {
	n.winMu.Lock()
	w := n.wins[k]
	n.winMu.Unlock()
	if w != nil {
		w.advance(seq)
	}
}

func (n *TCPNode) registerWin(k winKey, w *sendWindow) {
	n.winMu.Lock()
	n.wins[k] = w
	n.winMu.Unlock()
}

func (n *TCPNode) unregisterWin(k winKey) {
	n.winMu.Lock()
	delete(n.wins, k)
	n.winMu.Unlock()
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
	addr, known := n.peers[peer]
	if !known {
		return nil, fmt.Errorf("network: no address for node %d (dropped from the peer set?)", peer)
	}
	p := newConnPool(peer, addr, n.wireCfg().PoolSize)
	n.pools[peer] = p
	return p, nil
}

// writeBatch writes one finished batch on the peer's pooled connection
// selected by the flow hash — all traffic of one flow shares a slot, so
// per-stream frame order survives the multiplexing.
func (n *TCPNode) writeBatch(peer int, hash uint64, batch []byte) error {
	p, err := n.pool(peer)
	if err != nil {
		return err
	}
	return p.slot(hash).write(p.addr, peer, batch)
}

// TCPOutbox is the producer side of an exchange over TCP.
type TCPOutbox struct {
	node          *TCPNode
	query         int
	exchange      int
	consumerNodes []int // node id per destination instance
	buf           []byte
	seqs          []uint64      // next seq per destination
	wins          []*sendWindow // reliable path, lazily per destination
	scope         *telemetry.Scope
}

// NewOutbox creates an outbox sending from this node to the consumer
// instances of (query, exchange) located on the given nodes. Sequence
// numbers are based on a node-wide epoch shifted left 32 bits, so
// streams of consecutive queries reusing an exchange id never collide —
// and the receiver can tell a fresh stream's start (zero low bits) from
// a mid-stream gap.
func (n *TCPNode) NewOutbox(query, exchange int, consumerNodes []int) *TCPOutbox {
	base := uint64(n.epoch.Add(1)) << 32
	seqs := make([]uint64, len(consumerNodes))
	for i := range seqs {
		seqs[i] = base
	}
	return &TCPOutbox{node: n, query: query, exchange: exchange, consumerNodes: consumerNodes, seqs: seqs}
}

// SetScope attaches the telemetry scope sender-side events (injected
// faults, retries, transmit stalls) are recorded on.
func (o *TCPOutbox) SetScope(sc *telemetry.Scope) { o.scope = sc }

// Destinations implements iterator.Outbox.
func (o *TCPOutbox) Destinations() int { return len(o.consumerNodes) }

// Send implements iterator.Outbox. On the fast path the block is
// encoded once, directly into the staged wire batch; on the reliable
// path it is copied into a pooled window slot first so retransmissions
// outlive the caller's block.
func (o *TCPOutbox) Send(dest int, b *block.Block) error {
	n := o.node
	peer := o.consumerNodes[dest]
	seq := o.seqs[dest]
	o.seqs[dest]++
	if !n.reliable() {
		// Fire-and-forget fast path: the socket is trustworthy, pay no
		// round trip and no copy.
		h := frameHeader{
			query: o.query, exchange: o.exchange, inst: dest,
			kind: frameData, src: n.id, seq: seq,
		}
		return n.stager(peer, o.query, o.exchange, o.scope).appendBlock(h, b)
	}
	o.buf = b.Encode(o.buf)
	return o.sendReliable(dest, peer, seq, frameData, o.buf)
}

// CloseSend implements iterator.Outbox. End-of-stream markers ride the
// same path as data frames; on the reliable path CloseSend then drains
// every send window, so a stream failure (retransmission budget
// exhausted, exchange aborted) surfaces here at the latest.
func (o *TCPOutbox) CloseSend() error {
	n := o.node
	var firstErr error
	if !n.reliable() {
		for dest, peer := range o.consumerNodes {
			h := frameHeader{
				query: o.query, exchange: o.exchange, inst: dest,
				kind: frameEOF, src: n.id, seq: o.seqs[dest],
			}
			o.seqs[dest]++
			st := n.stager(peer, o.query, o.exchange, o.scope)
			err := st.appendRaw(h, nil)
			if err == nil {
				err = st.flush()
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	for dest, peer := range o.consumerNodes {
		seq := o.seqs[dest]
		o.seqs[dest]++
		if err := o.sendReliable(dest, peer, seq, frameEOF, nil); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, peer := range o.consumerNodes {
		_ = n.stager(peer, o.query, o.exchange, o.scope).flush()
	}
	for dest := range o.consumerNodes {
		if o.wins == nil || o.wins[dest] == nil {
			continue
		}
		if err := o.wins[dest].waitDrained(); err != nil && firstErr == nil {
			firstErr = err
		}
		n.unregisterWin(winKey{o.query, o.exchange, dest})
		o.wins[dest] = nil
	}
	return firstErr
}

// win returns (creating and registering on first use) the send window
// for one destination, and starts its retransmission pump.
func (o *TCPOutbox) win(dest int) (*sendWindow, error) {
	if o.wins == nil {
		o.wins = make([]*sendWindow, len(o.consumerNodes))
	}
	if w := o.wins[dest]; w != nil {
		return w, nil
	}
	n := o.node
	w := newSendWindow(o, dest, o.consumerNodes[dest])
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("network: node %d closed", n.id)
	}
	n.wg.Add(1)
	n.mu.Unlock()
	n.registerWin(winKey{o.query, o.exchange, dest}, w)
	o.wins[dest] = w
	go w.pump()
	return w, nil
}

// sendReliable ships one frame under the sliding window: reserve a
// window slot (blocking while the window is full), stage the initial
// transmission, and flush the stager if the window just filled — the
// stream is about to stall for acks, so waiting for more frames cannot
// help.
func (o *TCPOutbox) sendReliable(dest, peer int, seq uint64, kind byte, payload []byte) error {
	n := o.node
	select {
	case <-o.abortChan():
		return fmt.Errorf("network: exchange %d aborted", o.exchange)
	default:
	}
	if inj := n.faults(); inj.Severed(n.id, peer) {
		o.emitFault(telemetry.FaultInjected{
			Site: "link", Fault: "sever", From: n.id, To: peer,
			Exchange: o.exchange, Seq: seq,
		})
		return fmt.Errorf("network: link %d->%d severed", n.id, peer)
	}
	w, err := o.win(dest)
	if err != nil {
		return err
	}
	sum := crc32.Checksum(payload, crcTable)
	f, full, err := w.add(kind, seq, sum, payload, n.wireCfg().Window)
	if err != nil {
		return err
	}
	w.stageAttempt(f, 0)
	if full {
		_ = n.stager(peer, o.query, o.exchange, o.scope).flush()
	}
	return nil
}

// transmitFrame stages one transmission attempt of an in-flight frame,
// consulting the fault injector with the frame's coordinates — the same
// per-(seq, attempt) verdicts as v1's stop-and-wait loop, so recorded
// fault schedules keep their meaning. A Corrupt verdict poisons the
// frame checksum (the receiver's CRC check drops it either way); a Drop
// verdict keeps the frame off the wire and leaves recovery to the
// window pump.
func (o *TCPOutbox) transmitFrame(dest, peer int, f *wframe, attempt int) {
	n := o.node
	sum := f.sum
	var v faults.FrameVerdict
	if peer != n.id {
		v = n.faults().Frame(n.id, peer, o.exchange, f.seq, attempt)
	}
	if v.Delay > 0 {
		o.emitFault(telemetry.FaultInjected{
			Site: "link", Fault: "delay", From: n.id, To: peer,
			Exchange: o.exchange, Seq: f.seq, Delay: v.Delay,
		})
		time.Sleep(v.Delay)
	}
	if v.Drop {
		o.emitFault(telemetry.FaultInjected{
			Site: "link", Fault: "drop", From: n.id, To: peer,
			Exchange: o.exchange, Seq: f.seq,
		})
		return // never reaches the wire; the pump retransmits
	}
	if v.Corrupt {
		o.emitFault(telemetry.FaultInjected{
			Site: "link", Fault: "corrupt", From: n.id, To: peer,
			Exchange: o.exchange, Seq: f.seq,
		})
		sum ^= 0xDEAD
	}
	h := frameHeader{
		query: o.query, exchange: o.exchange, inst: dest,
		kind: f.kind, src: n.id, seq: f.seq, sum: sum,
	}
	st := n.stager(peer, o.query, o.exchange, o.scope)
	_ = st.appendRaw(h, f.payload)
	if v.Dup {
		o.emitFault(telemetry.FaultInjected{
			Site: "link", Fault: "dup", From: n.id, To: peer,
			Exchange: o.exchange, Seq: f.seq,
		})
		_ = st.appendRaw(h, f.payload)
	}
}

func (o *TCPOutbox) abortChan() chan struct{} {
	return o.node.abortCh(o.query, o.exchange)
}

func (o *TCPOutbox) emitFault(rec telemetry.FaultInjected) {
	if o.scope == nil {
		return
	}
	o.scope.Counter(telemetry.CtrFaultsInjected).Inc()
	o.scope.Emit(rec)
}

// Close shuts the node down: fail every send window (their pumps exit),
// discard staged batches, close the listener and all pooled and
// accepted connections, then join every goroutine.
func (n *TCPNode) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	pools := n.pools
	accepted := n.accepted
	n.pools = make(map[int]*connPool)
	n.accepted = nil
	aborts := n.aborts
	n.aborts = make(map[exchangeKey]chan struct{})
	stagers := n.stagers
	n.stagers = make(map[stageKey]*stager)
	n.mu.Unlock()
	// Fail pending reliable sends so no Send outlives the node.
	for _, ch := range aborts {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
	n.winMu.Lock()
	wins := n.wins
	n.wins = make(map[winKey]*sendWindow)
	n.winMu.Unlock()
	for _, w := range wins {
		w.fail(fmt.Errorf("network: node %d closed", n.id))
	}
	for _, s := range stagers {
		s.discard()
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
