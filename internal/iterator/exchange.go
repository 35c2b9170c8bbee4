package iterator

import (
	"math"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/types"
)

// The data exchange operator (Section 2.1) splits into a Sender on the
// producer segment and a Merger on the consumer segment. The wire
// between them is abstracted so the same operators run over in-process
// channels or TCP (package network provides both).

// Outbox is the sender's view of the network: a set of numbered
// destination instances of the consumer segment group.
type Outbox interface {
	// Destinations returns the number of consumer instances.
	Destinations() int
	// Send transmits one block to the destination instance, blocking
	// under backpressure or bandwidth limits.
	Send(dest int, b *block.Block) error
	// CloseSend signals end-of-stream to every destination.
	CloseSend() error
}

// RecvStatus is the outcome of an Inbox.Recv call.
type RecvStatus int

const (
	// RecvOK means a block was delivered.
	RecvOK RecvStatus = iota
	// RecvEOF means every producer instance has closed its stream.
	RecvEOF
	// RecvCancelled means the cancel channel fired while waiting.
	RecvCancelled
)

// Inbox is the merger's view of the network: a stream of blocks from all
// producer instances, ending when every producer has closed. Recv must
// honor the cancel channel so a worker blocked on an empty inbox can be
// shrunk away (Section 3.1).
type Inbox interface {
	Recv(cancel <-chan struct{}) (b *block.Block, st RecvStatus)
}

// Sender drains its child (the segment's elastic iterator), repartitions
// tuples into per-destination blocks, and ships them (Appendix
// Algorithm 4). It is always driven by the single segment-driver thread,
// never by the worker pool, so it needs no internal synchronization —
// and its per-tuple cost is serial, which is why it works a block at a
// time: one key-encoding pass, one hash scatter into per-destination
// selection vectors, one bulk copy per destination.
// Visit-rate tails are scaled by each destination's partition fraction
// (Section 4.3, Figure 7).
type Sender struct {
	child     Iterator
	sch       *types.Schema
	out       Outbox
	keys      *expr.BatchKeyEncoder // nil: gather, blocks forward whole
	scatter   scatter
	blockSize int
	pending   []*block.Block
	sent      []int64 // tuples sent per destination
	total     int64

	// BytesSent counts payload bytes shipped, for network accounting.
	BytesSent atomic.Int64

	// SendCopies says which side of the ownership rule the outbox is
	// on (set it before Run, from FabricExchange.SendCopies). False: Send
	// takes the block — the in-process transport hands the consumer the
	// pointer — and the sender must not touch it again. True: Send has
	// copied the block by the time it returns — the socket transports
	// serialize into their own buffers — so it only borrowed it: the
	// sender refills a staging block right after shipping it and
	// recycles a forwarded one.
	SendCopies bool
}

// NewSender builds a sender. With partition keys, tuple i of every
// block goes to destination Hash64(key_i) % Destinations() —
// repartitioning for joins and aggregations; with nil keys every block
// is forwarded whole to destination 0 (result collection, gathers).
func NewSender(child Iterator, sch *types.Schema, out Outbox, partKeys []expr.Expr) *Sender {
	s := &Sender{child: child, sch: sch, out: out}
	if partKeys != nil {
		s.keys = expr.NewBatchKeyEncoder(partKeys, sch)
	}
	return s
}

// SetBlockSize overrides the payload size of repartitioned blocks
// (default block.DefaultSize); engines configure it to their storage
// block size so exchange staging granularity matches.
func (s *Sender) SetBlockSize(n int) { s.blockSize = n }

// Run drives the sender to completion: open child, pump all blocks,
// close the streams. It returns the first error from the outbox; even
// then the streams are closed best-effort, so downstream consumers of a
// failed exchange are not left waiting for end-of-stream markers that
// will never come.
func (s *Sender) Run(ctx *Ctx) error {
	n := s.out.Destinations()
	s.pending = make([]*block.Block, n)
	s.sent = make([]int64, n)
	if st := s.child.Open(ctx); st == Terminated {
		return s.out.CloseSend()
	}
	for {
		b, st := s.child.Next(ctx)
		if st != OK {
			break
		}
		if err := s.route(b); err != nil {
			_ = s.out.CloseSend()
			return err
		}
	}
	for d, p := range s.pending {
		if p == nil {
			continue
		}
		if p.NumTuples() > 0 {
			if err := s.ship(d, p); err != nil {
				_ = s.out.CloseSend()
				return err
			}
		}
		if s.SendCopies {
			p.Recycle() // a staging block Send only ever borrowed
		}
	}
	return s.out.CloseSend()
}

func (s *Sender) route(b *block.Block) error {
	n := s.out.Destinations()
	if s.keys == nil || n == 1 {
		// Nothing to split: forward the block whole.
		s.sent[0] += int64(b.NumTuples())
		s.total += int64(b.NumTuples())
		err := s.ship(0, b)
		if s.SendCopies {
			b.Recycle() // Send only borrowed it
		}
		return err
	}
	rows := s.keys.EncodeBlock(b, nil)
	for d, sel := range s.scatter.split(s.keys, nil, rows, n) {
		s.sent[d] += int64(len(sel))
		s.total += int64(len(sel))
		for len(sel) > 0 {
			p := s.pending[d]
			if p == nil {
				p = block.New(s.sch, s.blockSize, nil)
				s.pending[d] = p
			}
			if p.NumTuples() == 0 {
				p.VisitRate = b.VisitRate
			}
			k := p.Cap() - p.NumTuples()
			if k > len(sel) {
				k = len(sel)
			}
			p.AppendSelected(b, sel[:k])
			sel = sel[k:]
			if !p.Full() {
				continue
			}
			if err := s.ship(d, p); err != nil {
				return err
			}
			if s.SendCopies {
				p.Reset()
			} else {
				s.pending[d] = nil
			}
		}
	}
	b.Recycle() // every row is in a staging block
	return nil
}

func (s *Sender) ship(d int, b *block.Block) error {
	// The block tail already carries δ·V_producer. Figure 7's general
	// form scales each consumer's contribution by its partition fraction
	// p_j and sums over producers; under hash partitioning the fractions
	// are ~1/n from each of n producers, so the sum telescopes back to
	// δ·V_producer. We therefore ship the tail unscaled and let the
	// merger read it directly — the group-level visit rate — which is
	// exactly the statistic Algorithm 1 consumes.
	s.BytesSent.Add(int64(b.WireSize()))
	return s.out.Send(d, b)
}

// Merger receives blocks from all producer instances of the upstream
// segment group (Appendix Algorithm 5). The network layer feeds the
// inbox from its own receiving thread, which keeps data arriving even
// while the consumer segment is fully shrunk — the property the paper
// calls out as important. As a stage beginner it honors termination
// requests and stamps sequence numbers.
type Merger struct {
	inbox Inbox
	sch   *types.Schema
	seq   atomic.Uint64

	// TuplesIn counts received tuples for scheduler metrics.
	TuplesIn atomic.Int64
	// LastVisitRate tracks the most recent visit-rate tail observed,
	// which the scheduler reads as V_i of the consumer segment.
	lastVR atomicFloat
}

// NewMerger builds a merger over an inbox.
func NewMerger(inbox Inbox, sch *types.Schema) *Merger {
	m := &Merger{inbox: inbox, sch: sch}
	m.lastVR.Store(1)
	return m
}

// Schema returns the exchanged schema.
func (m *Merger) Schema() *types.Schema { return m.sch }

// VisitRate returns the latest visit rate observed in block tails.
func (m *Merger) VisitRate() float64 { return m.lastVR.Load() }

// Open implements Iterator; the receiving machinery lives in the
// network layer, so there is no state to build.
func (m *Merger) Open(ctx *Ctx) Status { return OK }

// Next returns the next received block. A blocked wait is interrupted
// by the worker's termination request.
func (m *Merger) Next(ctx *Ctx) (*block.Block, Status) {
	if ctx.Term.Requested() {
		// Deregistration is deferred to the worker's real exit point (see
		// Scan.Next): operators above may still flush and apply a partial
		// block after this Terminated, and barrier members must cover
		// that in-flight contribution.
		return nil, Terminated
	}
	b, st := m.inbox.Recv(ctx.Term.Done())
	switch st {
	case RecvEOF:
		return nil, End
	case RecvCancelled:
		return nil, Terminated
	}
	b.Seq = m.seq.Add(1) - 1
	m.TuplesIn.Add(int64(b.NumTuples()))
	if b.VisitRate > 0 {
		m.lastVR.Store(b.VisitRate)
	}
	if ctx.OnBlockDone != nil {
		ctx.OnBlockDone(b.NumTuples())
	}
	return b, OK
}

// Close implements Iterator.
func (m *Merger) Close() {}

// atomicFloat is a float64 with atomic load/store.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Store(f float64) { a.bits.Store(math.Float64bits(f)) }
func (a *atomicFloat) Load() float64   { return math.Float64frombits(a.bits.Load()) }
