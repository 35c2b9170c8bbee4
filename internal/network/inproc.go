// Package network connects the exchange operators (sender/merger) of
// segments running on different nodes: a producer group of N instances
// ships blocks to a consumer group of M instances, one Inbox each. Two
// transports implement Fabric:
//
//   - InProc (this file): blocks move by pointer between the goroutine
//     "nodes" of one process, optionally through token-bucket NIC
//     emulation and the in-process fault model (faultyOutbox). The
//     default fabric of engine.NewCluster, tests and examples.
//   - TCP (tcp.go): blocks go through the wire codec, one frame per
//     write, over pooled sockets, under one protocol: per-stream send
//     windows whose credit is the only backpressure (a read loop never
//     waits on an Inbox). One TCPNode per cluster node (all on loopback
//     in engine.NewClusterTCP, one per claims-node process).
//
// exchangeAccount (fabric.go) is the traffic accounting both share, so
// the two report identical network statistics.
package network

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/block"
	"repro/internal/faults"
	"repro/internal/iterator"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// InProc is the in-process transport: blocks move by pointer between
// goroutine "nodes", with per-node egress/ingress NIC limiters charging
// the wire size of each block for inter-node traffic. Same-node traffic
// bypasses the NIC, as on the paper's cluster.
//
// Faults optionally attaches a fault injector: in-process "frames"
// (block handoffs) then pass through the same drop/delay/duplicate/
// corrupt verdicts as TCP frames, with loss surfacing as a
// backoff-and-retransmit delay and duplicates suppressed by the
// receiver model — so fault schedules run identically against both
// fabrics. Retry overrides the backoff policy.
type InProc struct {
	Faults *faults.Injector
	Retry  *RetryPolicy

	rate    float64
	mu      sync.Mutex
	egress  map[int]*Limiter
	ingress map[int]*Limiter
}

// NewInProc creates a transport whose per-node NICs are limited to
// bytesPerSec in each direction (0 = unlimited).
func NewInProc(bytesPerSec float64) *InProc {
	return &InProc{
		egress:  make(map[int]*Limiter),
		ingress: make(map[int]*Limiter),
		rate:    bytesPerSec,
	}
}

// nic returns one direction of a node's NIC. Only rate-limited
// transports call it: with no rate set a send takes no lock here.
func (t *InProc) nic(m map[int]*Limiter, node int) *Limiter {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := m[node]
	if !ok {
		l = NewLimiter(t.rate)
		m[node] = l
	}
	return l
}

// Exchange is one wired in-process exchange: one producer segment group
// shipping to one inbox per consumer instance.
type Exchange struct {
	tr            *InProc
	id            int
	consumerNodes []int
	inboxes       []*Inbox
	scope         *telemetry.Scope
	acct          exchangeAccount
	abortCh       chan struct{}
}

// NewExchange implements Fabric. bufBlocks <= 0 leaves the inboxes
// unbounded — materialized execution stages the entire intermediate
// result there, accounted against the tracker for Table 4. Each call
// creates a private exchange object, so the (query, id) key only
// matters for labels: in-process dataflows are disjoint by
// construction.
func (t *InProc) NewExchange(_, id, producers int, consumerNodes []int,
	sch *types.Schema, bufBlocks int, tracker *block.Tracker,
	scope *telemetry.Scope) FabricExchange {
	ex := &Exchange{
		tr: t, id: id,
		consumerNodes: consumerNodes,
		scope:         scope,
		acct:          newExchangeAccount(scope, id, consumerNodes),
		abortCh:       make(chan struct{}),
	}
	for range consumerNodes {
		ex.inboxes = append(ex.inboxes, newInbox(producers, bufBlocks, sch, tracker))
	}
	return ex
}

// Inbox implements FabricExchange.
func (e *Exchange) Inbox(i int) *Inbox { return e.inboxes[i] }

// SendCopies implements FabricExchange: blocks move by pointer.
func (e *Exchange) SendCopies() bool { return false }

// Release implements FabricExchange. The exchange object is the only
// per-query state, and it is garbage once the query drops it.
func (e *Exchange) Release() {}

// Abort implements FabricExchange: every inbox unblocks and discards,
// and pending fault-path retries fail fast. Idempotent.
func (e *Exchange) Abort() {
	select {
	case <-e.abortCh:
	default:
		close(e.abortCh)
	}
	for _, in := range e.inboxes {
		in.Abandon()
	}
}

// Outbox implements FabricExchange for the producer instance on node,
// behind the fault model when an injector is enabled.
func (e *Exchange) Outbox(node int) iterator.Outbox {
	ob := outbox{ex: e, node: node}
	if !e.tr.Faults.Enabled() {
		return e.acct.wrap(&ob, node)
	}
	pol := DefaultRetryPolicy
	if e.tr.Retry != nil {
		pol = e.tr.Retry.withDefaults()
	}
	return e.acct.wrap(&faultyOutbox{outbox: ob, pol: pol, seqs: make([]uint64, len(e.consumerNodes))}, node)
}

type outbox struct {
	ex   *Exchange
	node int
}

func (o *outbox) Destinations() int { return len(o.ex.consumerNodes) }

func (o *outbox) Send(dest int, b *block.Block) error {
	if dest < 0 || dest >= len(o.ex.inboxes) {
		return fmt.Errorf("network: bad destination %d", dest)
	}
	if tr, to := o.ex.tr, o.ex.consumerNodes[dest]; tr.rate > 0 && to != o.node {
		wire := b.WireSize()
		tr.nic(tr.egress, o.node).Take(wire)
		tr.nic(tr.ingress, to).Take(wire)
	}
	o.ex.inboxes[dest].put(b)
	return nil
}

func (o *outbox) CloseSend() error {
	for _, in := range o.ex.inboxes {
		in.producerDone()
	}
	return nil
}

// Inbox buffers blocks arriving for one consumer instance and satisfies
// iterator.Inbox. The buffer is a lock-guarded deque so it can be
// bounded (pipelined modes: backpressure propagates to senders) or
// unbounded (materialized execution). An in-process sender waits in put
// for room; the TCP read loop delivers without waiting and withholds
// credit instead, which the Recv that makes room grants.
type Inbox struct {
	sch     *types.Schema // what the socket transports decode frames with
	tracker *block.Tracker

	// ready holds at most one "look at the queue" token, so a blocked
	// Recv selects on it and its cancel channel with no helper
	// goroutine. Whoever makes the queue non-empty or the stream
	// finished deposits it; a woken consumer that leaves either still
	// true passes it on, so it reaches every waiter with work to see.
	ready chan struct{}

	mu        sync.Mutex
	notFull   *sync.Cond
	queue     []*block.Block
	capB      int // <=0: unbounded
	expected  int
	done      int
	buffered  int64
	peakBuf   int64
	received  int64
	abandoned bool
	withheld  []streamKey       // TCP streams whose credit waits for room
	grant     func([]streamKey) // the TCP node's re-grant, set at registration
}

func newInbox(producers, capB int, sch *types.Schema, tracker *block.Tracker) *Inbox {
	in := &Inbox{capB: capB, expected: producers, sch: sch, tracker: tracker,
		ready: make(chan struct{}, 1)}
	in.notFull = sync.NewCond(&in.mu)
	return in
}

// wake deposits the ready token if none is pending. It never blocks, so
// callers hold in.mu across it.
func (in *Inbox) wake() {
	select {
	case in.ready <- struct{}{}:
	default:
	}
}

func (in *Inbox) full() bool { return in.capB > 0 && len(in.queue) >= in.capB }

// put appends b for an in-process sender, first waiting for room.
func (in *Inbox) put(b *block.Block) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for in.full() && !in.abandoned {
		in.notFull.Wait()
	}
	in.appendLocked(b)
}

// deliver appends b (nil: none) for the TCP read loop without waiting
// and reports whether stream sk gets credit; if not, sk is recorded for
// the Recv that makes room.
func (in *Inbox) deliver(b *block.Block, sk streamKey) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if b != nil {
		in.appendLocked(b)
	}
	if !in.full() || in.abandoned {
		return true
	}
	if !slices.Contains(in.withheld, sk) {
		in.withheld = append(in.withheld, sk)
	}
	return false
}

// appendLocked queues b and charges it. An abandoned inbox recycles it:
// a dead dataflow has no consumer left to.
func (in *Inbox) appendLocked(b *block.Block) {
	if in.abandoned {
		b.Recycle()
		return
	}
	in.queue = append(in.queue, b)
	in.received += int64(b.NumTuples())
	in.buffered += int64(b.SizeBytes())
	if in.buffered > in.peakBuf {
		in.peakBuf = in.buffered
	}
	if in.tracker != nil {
		in.tracker.Alloc(int64(b.SizeBytes()))
	}
	in.wake()
}

func (in *Inbox) producerDone() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.done++
	if in.done >= in.expected {
		in.wake()
	}
}

// Recv implements iterator.Inbox with cancellation; the block it
// returns is the caller's, to recycle or to forward. A blocked wait is
// woken either by data, by the last producer closing, or by the cancel
// channel (a shrink request against the waiting worker). A cancel
// channel already closed on entry wins over buffered data; one that
// closes during the wait does not, because a waiter that took the ready
// token must look at the queue and pass the token on, or the blocks
// behind it are stranded with every other consumer still asleep.
func (in *Inbox) Recv(cancel <-chan struct{}) (*block.Block, iterator.RecvStatus) {
	select {
	case <-cancel:
		return nil, iterator.RecvCancelled
	default:
	}
	for {
		in.mu.Lock()
		finished := in.done >= in.expected
		if len(in.queue) > 0 {
			b := in.queue[0]
			in.queue = in.queue[1:]
			in.buffered -= int64(b.SizeBytes())
			if in.tracker != nil {
				in.tracker.Free(int64(b.SizeBytes()))
			}
			if len(in.queue) > 0 || finished {
				in.wake()
			}
			in.notFull.Broadcast()
			var grant []streamKey
			if len(in.withheld) > 0 && !in.full() {
				grant, in.withheld = in.withheld, nil
			}
			in.mu.Unlock()
			if grant != nil {
				in.grant(grant)
			}
			return b, iterator.RecvOK
		}
		if finished {
			in.wake() // pass the token on: every waiter must see the end
			in.mu.Unlock()
			return nil, iterator.RecvEOF
		}
		in.mu.Unlock()
		select {
		case <-in.ready:
		case <-cancel:
			return nil, iterator.RecvCancelled
		}
	}
}

// Len returns the number of buffered blocks.
func (in *Inbox) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.queue)
}

// Drained reports whether every producer closed and the queue is empty.
func (in *Inbox) Drained() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.done >= in.expected && len(in.queue) == 0
}

// AllProducersDone reports whether every producer has closed its stream.
func (in *Inbox) AllProducersDone() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.done >= in.expected
}

// Received returns the cumulative tuples received.
func (in *Inbox) Received() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.received
}

// PeakBufferedBytes returns the high-water mark of staged bytes —
// Table 4's materialization footprint.
func (in *Inbox) PeakBufferedBytes() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.peakBuf
}

// Abandon marks the inbox dead: buffered blocks are discarded (their
// tracker bytes freed), blocked producers drop instead of waiting, and
// every Recv — current or future — returns EOF. The engine abandons all
// inboxes of a failed query so neither the transport read loops nor the
// consuming workers stay wedged on a dataflow that will never drain.
func (in *Inbox) Abandon() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.abandoned {
		return
	}
	in.abandoned = true
	if in.tracker != nil && in.buffered > 0 {
		in.tracker.Free(in.buffered)
	}
	for _, b := range in.queue {
		b.Recycle()
	}
	in.queue = nil
	in.buffered = 0
	if in.done < in.expected {
		in.done = in.expected
	}
	in.wake()
	in.notFull.Broadcast()
}
