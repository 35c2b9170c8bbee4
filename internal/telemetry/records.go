package telemetry

import (
	"fmt"
	"time"
)

// Kind discriminates event record types.
type Kind uint8

// Event kinds. The first six are the core taxonomy every substrate
// shares; the sampling kinds carry the periodic timelines the paper's
// figures are drawn from.
const (
	// KindSchedDecision is one core move the dynamic scheduler made.
	KindSchedDecision Kind = iota
	// KindWorkerExpand is an elastic pool growing by one worker.
	KindWorkerExpand
	// KindWorkerShrink is an elastic pool shrinking by one worker.
	KindWorkerShrink
	// KindSegmentStageChange is a segment instance entering a stage.
	KindSegmentStageChange
	// KindBlockSent is one block crossing a node boundary.
	KindBlockSent
	// KindQueryPhase is a query-lifecycle transition.
	KindQueryPhase
	// KindBarrier is an elastic segment's dataflow barrier: all workers
	// drained and the joint buffer reached end-of-flow.
	KindBarrier
	// KindParallelismSample is one point of the per-segment parallelism
	// timeline (Figure 10).
	KindParallelismSample
	// KindUtilSample is one CPU/network utilization timeline slice
	// (Table 6).
	KindUtilSample
	// KindFaultInjected is one fault the injector (internal/faults)
	// applied: a dropped/delayed/duplicated/corrupted frame, a severed
	// link, or a crashed worker.
	KindFaultInjected
	// KindNetRetry is one retransmission attempt of the reliable
	// transport path (ack timeout, write failure, or injected loss).
	KindNetRetry
	// KindRecovery is one recovery decision: a dead worker pool
	// re-expanded on survivors, or a duplicate frame suppressed.
	KindRecovery
	// KindSpan is one completed tracing span (see span.go): a timed,
	// attributed slice of query work, exportable as a Chrome trace.
	KindSpan
	// KindSpill is one operator partition spilled to disk under memory
	// pressure.
	KindSpill
	// KindMembershipChange is one node's membership state transition
	// (joining/alive/suspect/dead) as seen by the cluster registry or a
	// node agent's view poll.
	KindMembershipChange

	numKinds
)

var kindNames = [...]string{
	"SchedDecision", "WorkerExpand", "WorkerShrink", "SegmentStageChange",
	"BlockSent", "QueryPhase", "Barrier", "ParallelismSample", "UtilSample",
	"FaultInjected", "NetRetry", "Recovery", "Span", "Spill",
	"MembershipChange",
}

// String renders the kind; out-of-range values render as "Kind(n)".
func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Record is a typed telemetry record.
type Record interface {
	Kind() Kind
}

// Event is one stamped occurrence in a scope's stream.
type Event struct {
	// Scope is the emitting scope's name, so sinks shared by
	// concurrent queries can separate their streams.
	Scope string `json:"scope"`
	// Seq is the scope-local sequence number (1-based).
	Seq uint64 `json:"seq"`
	// At is the scope clock at emission: wall time since scope start,
	// or virtual time for simulator scopes.
	At time.Duration `json:"at_ns"`
	// Rec is the typed payload.
	Rec Record `json:"rec"`
}

// SchedDecision is one core move the dynamic scheduler made (Algorithm 1
// and the free-core, release and memory rules around it). Every record
// is a move that happened: a rule that finds nothing to move emits none.
type SchedDecision struct {
	// Node is the deciding node scheduler.
	Node int `json:"node"`
	// Expanded names the segment that gained a worker and Shrunk the one
	// that lost one. A free-core handout only expands; a release, a
	// memory shrink, and an Algorithm 1 move whose receiver refused the
	// core only shrink.
	Expanded string `json:"expanded,omitempty"`
	Shrunk   string `json:"shrunk,omitempty"`
	// Reason is the rule that fired: "algorithm1", "free core",
	// "starved", "over-producing", "no gain", "mem pressure".
	Reason string `json:"reason"`
	// Lambda is the global normalized pipeline rate λ (Equation 3) the
	// decision was taken against.
	Lambda float64 `json:"lambda"`
	// Gain is the estimated throughput gain of the move.
	Gain float64 `json:"gain"`
}

// Kind implements Record.
func (SchedDecision) Kind() Kind { return KindSchedDecision }

// WorkerExpand records an elastic worker pool growing by one.
type WorkerExpand struct {
	Node    int    `json:"node"`
	Segment string `json:"segment"`
	// Workers is the pool size after the expansion.
	Workers int `json:"workers"`
}

// Kind implements Record.
func (WorkerExpand) Kind() Kind { return KindWorkerExpand }

// WorkerShrink records an elastic worker pool shrinking by one.
type WorkerShrink struct {
	Node    int    `json:"node"`
	Segment string `json:"segment"`
	// Workers is the pool size after the shrink.
	Workers int `json:"workers"`
}

// Kind implements Record.
func (WorkerShrink) Kind() Kind { return KindWorkerShrink }

// SegmentStageChange records a segment instance entering a stage
// (Section 2.1: a segment runs one stage at a time).
type SegmentStageChange struct {
	Node      int    `json:"node"`
	Segment   string `json:"segment"`
	Stage     int    `json:"stage"`
	StageName string `json:"stage_name,omitempty"`
}

// Kind implements Record.
func (SegmentStageChange) Kind() Kind { return KindSegmentStageChange }

// BlockSent records one block crossing a node boundary. Both the
// in-process and the TCP transport emit it from the same wrapper, so
// the paths report identically.
type BlockSent struct {
	Exchange int `json:"exchange"`
	From     int `json:"from"`
	To       int `json:"to"`
	Tuples   int `json:"tuples"`
	Bytes    int `json:"bytes"`
}

// Kind implements Record.
func (BlockSent) Kind() Kind { return KindBlockSent }

// QueryPhase records a query-lifecycle transition ("start", "end", …).
type QueryPhase struct {
	Phase  string `json:"phase"`
	Detail string `json:"detail,omitempty"`
}

// Kind implements Record.
func (QueryPhase) Kind() Kind { return KindQueryPhase }

// Barrier records an elastic segment reaching its dataflow barrier:
// the last worker saw end-of-flow and the joint buffer closed.
type Barrier struct {
	Node    int    `json:"node"`
	Segment string `json:"segment"`
}

// Kind implements Record.
func (Barrier) Kind() Kind { return KindBarrier }

// ParallelismSample is one point of the parallelism timeline: segment
// name → current worker count (node 0 / master instances).
type ParallelismSample struct {
	Parallelism map[string]int `json:"parallelism"`
}

// Kind implements Record.
func (ParallelismSample) Kind() Kind { return KindParallelismSample }

// UtilSample is one utilization timeline slice.
type UtilSample struct {
	CPU     float64 `json:"cpu"`
	Network float64 `json:"network"`
}

// Kind implements Record.
func (UtilSample) Kind() Kind { return KindUtilSample }

// FaultInjected records one applied fault. Site is the injection point
// ("link" for frame faults, "worker" for crashes); Fault is the fault
// kind ("drop", "delay", "dup", "corrupt", "sever", "crash").
type FaultInjected struct {
	Site     string        `json:"site"`
	Fault    string        `json:"fault"`
	From     int           `json:"from,omitempty"`
	To       int           `json:"to,omitempty"`
	Exchange int           `json:"exchange,omitempty"`
	Seq      uint64        `json:"seq,omitempty"`
	Segment  string        `json:"segment,omitempty"`
	Worker   int           `json:"worker,omitempty"`
	Delay    time.Duration `json:"delay_ns,omitempty"`
}

// Kind implements Record.
func (FaultInjected) Kind() Kind { return KindFaultInjected }

// NetRetry records one retransmission decision of the reliable
// transport path: frame Seq on the From→To link is being resent as
// Attempt (1-based retry count) after waiting Backoff.
type NetRetry struct {
	Exchange int           `json:"exchange"`
	From     int           `json:"from"`
	To       int           `json:"to"`
	Seq      uint64        `json:"seq"`
	Attempt  int           `json:"attempt"`
	Backoff  time.Duration `json:"backoff_ns"`
	Cause    string        `json:"cause,omitempty"` // "timeout", "write", "dial"
}

// Kind implements Record.
func (NetRetry) Kind() Kind { return KindNetRetry }

// Spill records one operator partition written to disk under memory
// pressure: Op is the operator kind ("hashjoin", "hashagg"), Partition
// the shard index, Phase the dataflow phase the spill happened in
// ("build", "probe", "input").
type Spill struct {
	Op        string `json:"op"`
	Node      int    `json:"node"`
	Partition int    `json:"partition"`
	Bytes     int64  `json:"bytes"`
	Rows      int64  `json:"rows"`
	Phase     string `json:"phase"`
}

// Kind implements Record.
func (Spill) Kind() Kind { return KindSpill }

// MembershipChange records one node's membership state transition: the
// registry's failure detector moving a node along
// joining→alive→suspect→dead, or a (re)join bumping its incarnation.
type MembershipChange struct {
	Node        int    `json:"node"`
	From        string `json:"from"`
	To          string `json:"to"`
	Incarnation int    `json:"incarnation"`
}

// Kind implements Record.
func (MembershipChange) Kind() Kind { return KindMembershipChange }

// Recovery records one recovery action. Action is "re-expand" (a
// segment whose worker pool died was re-grown via the elastic expand
// path) or "dup-drop" (a duplicate frame was suppressed by its
// sequence number).
type Recovery struct {
	Node    int    `json:"node"`
	Segment string `json:"segment,omitempty"`
	Action  string `json:"action"`
	// Workers is the pool size after a re-expansion.
	Workers int `json:"workers,omitempty"`
}

// Kind implements Record.
func (Recovery) Kind() Kind { return KindRecovery }
