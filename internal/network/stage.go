package network

import (
	"hash/crc32"
	"strconv"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/telemetry"
)

// stager coalesces the frames one exchange sends to one peer into wire
// batches: frames accumulate in a pooled batch buffer and go out in a
// single contiguous write once the batch reaches WireConfig.CoalesceBytes,
// the CoalesceDelay deadline fires, or the stream hits a point where
// waiting cannot help (end of stream, send window full). Small-block
// repartition traffic — the dominant exchange shape — thus pays one
// syscall per batch instead of one per block, and the fast path encodes
// each block exactly once, straight into the bytes the syscall writes.
type stager struct {
	n     *TCPNode
	peer  int
	flow  flowKey
	hash  uint64           // conn-pool slot selector, stable per flow
	scope *telemetry.Scope // sender-side scope for stall/batch accounting

	mu     sync.Mutex
	buf    []byte // pooled batch buffer; nil when empty (batchHdrLen reserved)
	frames int
	gen    uint64 // flush generation; invalidates stale deadline timers
	timer  *time.Timer
	err    error // sticky deadline-flush error, surfaced to the next append
}

// stageKey identifies one stager: the traffic of one (query, exchange)
// toward one peer node.
type stageKey struct {
	peer     int
	query    int
	exchange int
}

// stager returns (creating on first use) the stager for one flow's
// traffic to a peer. Concurrent outboxes of the same exchange share the
// stager and therefore the batch buffer. The creator's scope is the
// stager's for life: the coalesce-deadline timer reads it under s.mu
// while senders come through here under n.mu, so it is never written
// after creation.
func (n *TCPNode) stager(peer, query, exchange int, scope *telemetry.Scope) *stager {
	k := stageKey{peer, query, exchange}
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.stagers[k]
	if !ok {
		s = &stager{
			n: n, peer: peer,
			flow:  flowKey{query, exchange},
			hash:  flowHash(query, exchange),
			scope: scope,
		}
		n.stagers[k] = s
	}
	return s
}

// appendBlock stages a data frame whose payload is the encoded block,
// serialized directly into the batch buffer (no intermediate copy). The
// frame checksum is computed over the just-written bytes. Returns any
// synchronous flush error — the unreliable fast path surfaces it from
// Send, exactly as v1 surfaced a write error.
func (s *stager) appendBlock(h frameHeader, b *block.Block) error {
	need := frameHdrLen + b.WireSize()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.takeErrLocked(); err != nil {
		return err
	}
	if err := s.ensureLocked(need); err != nil {
		return err
	}
	at := len(s.buf)
	s.buf = s.buf[:at+frameHdrLen]
	s.buf = b.EncodeAppend(s.buf)
	payload := s.buf[at+frameHdrLen:]
	h.length = len(payload)
	h.sum = crc32.Checksum(payload, crcTable)
	putFrameHeader(s.buf[at:], h)
	s.frames++
	return s.maybeFlushLocked()
}

// appendRaw stages one already-encoded frame (reliable-path copies and
// retransmits, eof markers, pre-checksummed by the caller).
func (s *stager) appendRaw(h frameHeader, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.takeErrLocked(); err != nil {
		return err
	}
	if err := s.ensureLocked(frameHdrLen + len(payload)); err != nil {
		return err
	}
	s.buf = appendFrame(s.buf, h, payload)
	s.frames++
	return s.maybeFlushLocked()
}

// flush forces out whatever is staged: end of stream, a send window
// about to block, or a retransmission round that must reach the wire
// now.
func (s *stager) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.takeErrLocked(); err != nil {
		return err
	}
	return s.flushLocked()
}

// takeErrLocked surfaces (and clears) a sticky deadline-flush error, so
// a background write failure is reported on the next send instead of
// vanishing. Reliable-mode flushes never set it — retransmission is the
// recovery there.
func (s *stager) takeErrLocked() error {
	err := s.err
	s.err = nil
	return err
}

// ensureLocked makes room for need more bytes, flushing the current
// batch first when it would not fit, and allocates the pooled batch
// buffer on first use.
func (s *stager) ensureLocked(need int) error {
	if s.buf != nil && len(s.buf)+need > cap(s.buf) {
		if err := s.flushLocked(); err != nil {
			return err
		}
	}
	if s.buf == nil {
		size := s.n.wireCfg().CoalesceBytes
		if size < need {
			size = need
		}
		raw := block.GetBuf(batchHdrLen + size)
		s.buf = raw[:batchHdrLen]
		s.armTimerLocked()
	}
	return nil
}

// maybeFlushLocked flushes when the staged payload crossed the
// coalescing threshold (<=1 disables coalescing: every frame is its own
// batch).
func (s *stager) maybeFlushLocked() error {
	if cfg := s.n.wireCfg(); len(s.buf)-batchHdrLen >= cfg.CoalesceBytes || cfg.CoalesceBytes <= 1 {
		return s.flushLocked()
	}
	return nil
}

// armTimerLocked schedules the deadline flush for the batch just
// started; the generation check discards the timer if a size/EOF flush
// beat it.
func (s *stager) armTimerLocked() {
	cfg := s.n.wireCfg()
	if cfg.CoalesceBytes <= 1 {
		return // every append flushes synchronously anyway
	}
	gen := s.gen
	s.timer = time.AfterFunc(cfg.CoalesceDelay, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.gen != gen || s.buf == nil {
			return
		}
		if err := s.flushLocked(); err != nil {
			s.err = err
		}
	})
}

// flushLocked stamps the batch header and writes the batch as one
// contiguous write on the flow's pooled connection, after taking the
// node transmit scheduler's turn for this flow. In reliable mode write
// errors are swallowed: the connection is already dropped for redial
// and the send windows retransmit.
func (s *stager) flushLocked() error {
	if s.buf == nil {
		return nil
	}
	buf, frames := s.buf, s.frames
	s.buf, s.frames = nil, 0
	s.gen++
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	putBatchHeader(buf, len(buf)-batchHdrLen, frames)
	err := s.n.transmit(s.peer, s.flow, s.hash, s.scope, buf, frames)
	block.PutBuf(buf)
	if err != nil && s.n.reliable() {
		err = nil
	}
	return err
}

// discard drops any staged bytes without writing them (exchange release
// and node shutdown).
func (s *stager) discard() {
	s.mu.Lock()
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if s.buf != nil {
		block.PutBuf(s.buf)
		s.buf = nil
		s.frames = 0
	}
	s.gen++
	s.mu.Unlock()
}

// transmit ships one finished batch to a peer: acquire the flow's turn
// on the node transmit scheduler (accounting the wait as the exchange's
// net.stall_ns), then one contiguous write on the flow's pooled
// connection.
func (n *TCPNode) transmit(peer int, fl flowKey, hash uint64,
	scope *telemetry.Scope, batch []byte, frames int) error {
	var sp *telemetry.Span
	if scope != nil {
		sp = scope.StartSpan("net.stall ex"+strconv.Itoa(fl.exchange), "net").
			WithNode(n.id).WithBytes(int64(len(batch)))
	}
	stall := n.flow.acquire(fl)
	if stall > 0 {
		n.statStallNs.Add(int64(stall))
		if scope != nil {
			scope.Counter(telemetry.CtrNetStallNs).Add(int64(stall))
			scope.Counter(telemetry.ExCtr(fl.exchange, "stall_ns")).Add(int64(stall))
			scope.Histogram(telemetry.HistNetStall, telemetry.DurationBuckets).Observe(stall.Seconds())
			sp.End()
		}
	}
	err := n.writeBatch(peer, hash, batch)
	n.flow.release()
	n.statBatches.Add(1)
	n.statFrames.Add(int64(frames))
	n.statBytes.Add(int64(len(batch)))
	if scope != nil {
		scope.Counter(telemetry.CtrNetBatches).Inc()
		scope.Counter(telemetry.CtrNetBatchFrames).Add(int64(frames))
	}
	return err
}
