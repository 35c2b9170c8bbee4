package network

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/block"
	"repro/internal/iterator"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// Fabric abstracts the exchange substrate the engine wires segments
// over, so the same execution code runs on the in-process transport
// (tests, examples, simulated bandwidth) or across real TCP sockets.
type Fabric interface {
	// NewExchange declares an exchange: producers instances ship
	// sch-typed blocks to one consumer instance per entry of
	// consumerNodes. Exchanges are keyed by (query, id): plan exchange
	// ids repeat across queries, so the process-unique query id
	// namespaces every dataflow and concurrent queries never cross.
	// bufBlocks bounds each inbox (<=0 unbounded); tracker accounts
	// staged bytes. Cross-node traffic is counted on scope's shared
	// telemetry counters (net.bytes / net.blocks) and emitted as
	// BlockSent events — identically on every transport.
	NewExchange(query, id, producers int, consumerNodes []int, sch *types.Schema,
		bufBlocks int, tracker *block.Tracker, scope *telemetry.Scope) FabricExchange
}

// FabricExchange is one wired exchange.
type FabricExchange interface {
	Inbox(i int) *Inbox
	Outbox(producerNode int) iterator.Outbox
	// SendCopies reports whether an outbox's Send has copied the block
	// by the time it returns, so the caller may overwrite it. The socket
	// transports serialize into their own buffers (true); the
	// in-process transport hands the consumer the pointer (false).
	SendCopies() bool
	// Abort abandons the exchange after a query failure: inboxes
	// unblock and discard, pending reliable sends fail fast. Idempotent;
	// safe to call concurrently with senders and receivers.
	Abort()
	// Release drops the exchange's per-query state from the transport
	// once the query completed. A long-lived serving node would
	// otherwise accrete per-query registrations forever. Call after all
	// senders and receivers finished; idempotent.
	Release()
}

// exchangeAccount is one exchange's traffic accounting on the query's
// scope, and the one place traffic is counted, on either transport:
// bytes and blocks that cross a node boundary go into the scope's net.*
// counters and — split per exchange, rows included — into its
// ex.<id>.* counters, the figures EXPLAIN ANALYZE reports per plan
// edge; each crossing also emits one BlockSent event for traces and
// sinks. Same-node traffic is not counted — this is what makes the
// real-TCP and in-process paths report identical network statistics.
// The instruments are resolved once, when the exchange is declared, and
// shared by the outboxes of all its producers.
type exchangeAccount struct {
	scope         *telemetry.Scope
	exchange      int
	consumerNodes []int
	sendSpan      string // built once here: StartSpan must see no work when spans are off

	netBytes, netBlocks *telemetry.Counter
	rows, blocks, bytes *telemetry.Counter
}

// newExchangeAccount resolves an exchange's instruments on scope; the
// zero account without one.
func newExchangeAccount(scope *telemetry.Scope, exchange int, consumerNodes []int) exchangeAccount {
	if scope == nil {
		return exchangeAccount{}
	}
	return exchangeAccount{
		scope:         scope,
		exchange:      exchange,
		consumerNodes: consumerNodes,
		sendSpan:      "send ex" + strconv.Itoa(exchange),
		netBytes:      scope.Counter(telemetry.CtrNetBytes),
		netBlocks:     scope.Counter(telemetry.CtrNetBlocks),
		rows:          scope.Counter(telemetry.ExCtr(exchange, "rows")),
		blocks:        scope.Counter(telemetry.ExCtr(exchange, "blocks")),
		bytes:         scope.Counter(telemetry.ExCtr(exchange, "bytes")),
	}
}

// wrap puts the accounting in front of the outbox of the producer on
// node; with the zero account (no scope) the outbox passes through.
func (a *exchangeAccount) wrap(inner iterator.Outbox, node int) iterator.Outbox {
	if a.scope == nil {
		return inner
	}
	return &scopedOutbox{inner: inner, acct: a, node: node}
}

// scopedOutbox is the shim both transports wrap their outboxes in: it
// books every cross-node send on the exchange's account.
type scopedOutbox struct {
	inner iterator.Outbox
	acct  *exchangeAccount
	node  int
}

// Destinations implements iterator.Outbox.
func (o *scopedOutbox) Destinations() int { return o.inner.Destinations() }

// Send implements iterator.Outbox.
func (o *scopedOutbox) Send(dest int, b *block.Block) error {
	a := o.acct
	if dest < 0 || dest >= len(a.consumerNodes) || a.consumerNodes[dest] == o.node {
		return o.inner.Send(dest, b)
	}
	wire, rows := b.WireSize(), b.NumTuples()
	a.netBytes.Add(int64(wire))
	a.netBlocks.Inc()
	a.bytes.Add(int64(wire))
	a.blocks.Inc()
	a.rows.Add(int64(rows))
	a.scope.Emit(telemetry.BlockSent{
		Exchange: a.exchange,
		From:     o.node,
		To:       a.consumerNodes[dest],
		Tuples:   rows,
		Bytes:    wire,
	})
	// The send span covers the cross-node handoff incl. backpressure
	// and bandwidth waits; recv-side time shows as the consuming
	// merger operator's busy time.
	sp := a.scope.StartSpan(a.sendSpan, "net").
		WithNode(o.node).WithRows(int64(rows)).
		WithBlocks(1).WithBytes(int64(wire))
	err := o.inner.Send(dest, b)
	sp.End()
	return err
}

// CloseSend implements iterator.Outbox.
func (o *scopedOutbox) CloseSend() error { return o.inner.CloseSend() }

// --- in-process fault model ------------------------------------------------

// faultyOutbox subjects in-process block handoffs to the fault
// injector, mirroring the TCP reliable path's observable behavior:
// dropped or corrupted frames cost an ack-timeout backoff and a
// retransmission, delays sleep, duplicates are suppressed at the
// receiver (the transport moves pointers, so applying one would corrupt
// shared state — suppression is mandatory, and counted like TCP's
// dedupe), and a severed link fails the send.
type faultyOutbox struct {
	outbox // the healthy handoff a frame reaches once it survives its verdicts
	pol    RetryPolicy
	seqs   []uint64
}

// Send implements iterator.Outbox.
func (o *faultyOutbox) Send(dest int, b *block.Block) error {
	return o.ship(dest, func() error { return o.outbox.Send(dest, b) })
}

// CloseSend implements iterator.Outbox. End-of-stream markers pay the
// same fault schedule per destination, then close the inner streams.
func (o *faultyOutbox) CloseSend() error {
	for dest := range o.seqs {
		if err := o.ship(dest, func() error { return nil }); err != nil {
			return err
		}
	}
	return o.outbox.CloseSend()
}

// ship runs one logical frame through the fault/retry loop and calls
// deliver on success.
func (o *faultyOutbox) ship(dest int, deliver func() error) error {
	inj, scope, exchange := o.ex.tr.Faults, o.ex.scope, o.ex.id
	to := o.ex.consumerNodes[dest]
	seq := o.seqs[dest]
	o.seqs[dest]++
	if to == o.node {
		// Same-node traffic bypasses the emulated wire, faults included.
		return deliver()
	}
	deadline := time.Now().Add(o.pol.Deadline)
	for attempt := 0; ; attempt++ {
		select {
		case <-o.ex.abortCh:
			return fmt.Errorf("network: exchange %d aborted", exchange)
		default:
		}
		if inj.Severed(o.node, to) {
			emitFault(scope, "sever", o.node, to, exchange, seq, 0)
			return fmt.Errorf("network: link %d->%d severed", o.node, to)
		}
		v := inj.Frame(o.node, to, exchange, seq, attempt)
		if v.Delay > 0 {
			emitFault(scope, "delay", o.node, to, exchange, seq, v.Delay)
			time.Sleep(v.Delay)
		}
		if !v.Drop && !v.Corrupt {
			if v.Dup {
				// The duplicate "arrives" and is suppressed by sequence
				// number, exactly like the TCP receiver's dedupe.
				emitFault(scope, "dup", o.node, to, exchange, seq, 0)
				if scope != nil {
					scope.Counter(telemetry.CtrNetDupDropped).Inc()
					scope.Emit(telemetry.Recovery{Node: to, Action: "dup-drop"})
				}
			}
			return deliver()
		}
		// Lost (or checksum-failed) frame: the sender waits out the ack
		// timeout, then retransmits.
		kind := "drop"
		if v.Corrupt {
			kind = "corrupt"
			if scope != nil {
				scope.Counter(telemetry.CtrNetCorruptDropped).Inc()
			}
		}
		emitFault(scope, kind, o.node, to, exchange, seq, 0)
		wait := o.pol.Timeout(attempt, seq*0x9e3779b97f4a7c15+uint64(attempt))
		timer := time.NewTimer(wait)
		select {
		case <-o.ex.abortCh:
			timer.Stop()
			return fmt.Errorf("network: exchange %d aborted", exchange)
		case <-timer.C:
		}
		if (o.pol.MaxAttempts > 0 && attempt+1 >= o.pol.MaxAttempts) || time.Now().After(deadline) {
			return fmt.Errorf("network: send to node %d (exchange %d, seq %d) undeliverable after %d attempts",
				to, exchange, seq, attempt+1)
		}
		if scope != nil {
			scope.Counter(telemetry.CtrNetRetries).Inc()
			scope.Emit(telemetry.NetRetry{
				Exchange: exchange, From: o.node, To: to, Seq: seq,
				Attempt: attempt + 1, Backoff: wait, Cause: "timeout",
			})
		}
	}
}

// emitFault counts and records one injected link fault, on either
// transport.
func emitFault(scope *telemetry.Scope, kind string, from, to, exchange int, seq uint64, d time.Duration) {
	if scope == nil {
		return
	}
	scope.Counter(telemetry.CtrFaultsInjected).Inc()
	scope.Emit(telemetry.FaultInjected{
		Site: "link", Fault: kind, From: from, To: to,
		Exchange: exchange, Seq: seq, Delay: d,
	})
}

// --- TCP fabric ---------------------------------------------------------------

// TCPFabric runs every exchange over real sockets, through the block
// wire codec on every hop. It is built over the TCPNodes THIS process
// hosts: all of them (every cluster node on loopback, master included)
// for a single-process cluster, or the one node a process of a
// multi-process cluster owns. Each process runs the same wiring code
// against its own fabric: inboxes are registered for the consumer
// instances placed on hosted nodes only, outboxes exist for hosted
// producers only, and Abort/Release tear down the hosted side — the
// union across processes reproduces the full exchange (a coordinator
// broadcasts aborts over the control plane).
//
// Peer addressing is dynamic: the membership plane pushes view updates
// into TCPNode.SetPeer/DropPeer, so a node that rejoined on a fresh
// ephemeral port is redialed at its new address.
type TCPFabric struct {
	nodes map[int]*TCPNode
}

// NewTCPFabric builds a fabric over the hosted nodes (node id → TCPNode).
func NewTCPFabric(nodes map[int]*TCPNode) *TCPFabric {
	return &TCPFabric{nodes: nodes}
}

// NewExchange implements Fabric. Inbox(i) of a consumer instance placed
// on a node another process hosts is nil (the engine never asks — it
// only reads inboxes of segments it instantiated locally).
func (f *TCPFabric) NewExchange(query, id, producers int, consumerNodes []int,
	sch *types.Schema, bufBlocks int, tracker *block.Tracker,
	scope *telemetry.Scope) FabricExchange {
	ex := &tcpExchange{fabric: f, query: query, id: id, consumerNodes: consumerNodes,
		scope: scope, acct: newExchangeAccount(scope, id, consumerNodes),
		inboxes: make([]*Inbox, len(consumerNodes))}
	for i, cn := range consumerNodes {
		node, ok := f.nodes[cn]
		if !ok {
			continue
		}
		node.SetExchangeScope(query, id, scope)
		ex.inboxes[i] = node.RegisterInbox(query, id, i, producers, sch, bufBlocks, tracker)
	}
	return ex
}

type tcpExchange struct {
	fabric        *TCPFabric
	query         int
	id            int
	consumerNodes []int
	scope         *telemetry.Scope
	acct          exchangeAccount
	inboxes       []*Inbox
}

// Inbox implements FabricExchange; nil for instances on nodes this
// process does not host.
func (e *tcpExchange) Inbox(i int) *Inbox { return e.inboxes[i] }

// SendCopies implements FabricExchange: TCPOutbox.Send encodes the
// block into its own frame buffer before returning.
func (e *tcpExchange) SendCopies() bool { return true }

// Abort implements FabricExchange: every hosted node abandons the
// exchange, so senders, read loops and consumers all unwedge.
func (e *tcpExchange) Abort() {
	for _, n := range e.fabric.nodes {
		n.AbortExchange(e.query, e.id)
	}
}

// Release implements FabricExchange: every hosted node drops the
// exchange's per-query registrations.
func (e *tcpExchange) Release() {
	for _, n := range e.fabric.nodes {
		n.ReleaseExchange(e.query, e.id)
	}
}

// Outbox implements FabricExchange. Producers only ever run where they
// were instantiated, so asking for an unhosted node's outbox is a
// wiring bug, not a runtime condition.
func (e *tcpExchange) Outbox(producerNode int) iterator.Outbox {
	node, ok := e.fabric.nodes[producerNode]
	if !ok {
		panic(fmt.Sprintf("network: TCP fabric does not host node %d", producerNode))
	}
	ob := node.NewOutbox(e.query, e.id, e.consumerNodes)
	ob.SetScope(e.scope)
	return e.acct.wrap(ob, producerNode)
}
