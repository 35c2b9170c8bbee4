package network

import (
	"fmt"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/iterator"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// Query-id namespace partitioning. Every exchange in both fabrics is
// keyed by (queryID, exchangeID); served queries draw their ids from
// the engine (always below ReservedQueryIDBase), while out-of-band
// tools that ship blocks outside any query — the claims-node -drive
// mesh exerciser — use ids in the reserved range. Before this split
// the mesh tool squatted on query id 0, which collided with a served
// query whose dataflow reused the same (0, exchange) key.
const (
	// ReservedQueryIDBase is the first reserved query id: the engine
	// never assigns ids at or above it.
	ReservedQueryIDBase = 1 << 30
	// MeshQueryID is the query id of the claims-node mesh throughput
	// tool's dataflow.
	MeshQueryID = ReservedQueryIDBase
	// MeshExchangeID is the exchange id of the mesh tool's dataflow.
	MeshExchangeID = 1
)

// DistFabric is the Fabric of ONE process of a multi-process cluster:
// it wraps the process's single TCPNode. Where TCPFabric (all nodes in
// one process) registers inboxes on every consumer node, DistFabric
// registers only the consumer instances living on the local node —
// each peer process runs the same wiring code against its own
// DistFabric, and the union across processes reproduces the full
// exchange. Outboxes are only available for the local node, and Abort/
// Release act on the local node only: every process tears down its own
// side of a dataflow (the coordinator broadcasts the abort over the
// control plane).
//
// Peer addressing is dynamic: the membership plane pushes view updates
// into TCPNode.SetPeer/DropPeer, so a node that rejoined on a fresh
// ephemeral port is redialed at its new address.
type DistFabric struct {
	node   *TCPNode
	egress atomic.Int64
}

// NewDistFabric builds the fabric over the process's node.
func NewDistFabric(n *TCPNode) *DistFabric { return &DistFabric{node: n} }

// Node returns the underlying transport node.
func (f *DistFabric) Node() *TCPNode { return f.node }

// NewExchange implements Fabric. Only consumer instances placed on the
// local node get an inbox; Inbox(i) for a remote instance returns nil
// (the engine never asks — it only reads inboxes of segments it
// instantiated locally).
func (f *DistFabric) NewExchange(query, id, producers int, consumerNodes []int,
	sch *types.Schema, bufBlocks int, tracker *block.Tracker,
	scope *telemetry.Scope) FabricExchange {
	ex := &distExchange{
		fabric:        f,
		query:         query,
		id:            id,
		consumerNodes: consumerNodes,
		scope:         scope,
		inboxes:       make([]*Inbox, len(consumerNodes)),
	}
	for i, cn := range consumerNodes {
		if cn != f.node.id {
			continue
		}
		f.node.SetExchangeScope(query, id, scope)
		ex.inboxes[i] = f.node.RegisterInbox(query, id, i, producers, sch, bufBlocks, tracker)
	}
	return ex
}

// NodeEgressBytes implements Fabric: only the local node's egress is
// observable from this process.
func (f *DistFabric) NodeEgressBytes(node int) int64 {
	if node == f.node.id {
		return f.egress.Load()
	}
	return 0
}

type distExchange struct {
	fabric        *DistFabric
	query         int
	id            int
	consumerNodes []int
	scope         *telemetry.Scope
	inboxes       []*Inbox
}

// Inbox implements FabricExchange; nil for instances on remote nodes.
func (e *distExchange) Inbox(i int) *Inbox { return e.inboxes[i] }

// SendCopies implements FabricExchange: the same TCPOutbox as
// TCPFabric's.
func (e *distExchange) SendCopies() bool { return true }

// Abort implements FabricExchange for the local side of the dataflow.
func (e *distExchange) Abort() {
	e.fabric.node.AbortExchange(e.query, e.id)
}

// Release implements FabricExchange for the local side.
func (e *distExchange) Release() {
	e.fabric.node.ReleaseExchange(e.query, e.id)
}

// Outbox implements FabricExchange. Producers only ever run where they
// were instantiated, so asking for a remote node's outbox is a wiring
// bug, not a runtime condition.
func (e *distExchange) Outbox(producerNode int) iterator.Outbox {
	if producerNode != e.fabric.node.id {
		panic(fmt.Sprintf("network: DistFabric on node %d asked for node %d's outbox",
			e.fabric.node.id, producerNode))
	}
	ob := e.fabric.node.NewOutbox(e.query, e.id, e.consumerNodes)
	ob.SetScope(e.scope)
	inner := &countingOutbox{inner: ob, counter: &e.fabric.egress}
	return wrapOutbox(inner, e.scope, e.id, producerNode, e.consumerNodes)
}

var _ Fabric = (*DistFabric)(nil)
