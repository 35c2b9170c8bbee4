package network

import (
	"fmt"
	"hash/crc32"
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
	ex   *exchangeRec
	peer int

	mu     sync.Mutex
	buf    []byte // pooled batch buffer; nil when empty (batchHdrLen reserved)
	frames int
	gen    uint64 // flush generation; invalidates stale deadline timers
	timer  *time.Timer
	err    error // sticky deadline-flush error, surfaced to the next append
	closed bool  // discarded with its exchange: appends fail, nothing is staged or timed again
}

// stager returns (creating on first use) the stager for the exchange's
// traffic to a peer. Concurrent outboxes of the same exchange share the
// stager and therefore the batch buffer. A released exchange hands out
// closed stagers and keeps none.
func (ex *exchangeRec) stager(peer int) *stager {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	s, ok := ex.stagers[peer]
	if !ok {
		s = &stager{ex: ex, peer: peer, closed: ex.released}
		if !ex.released {
			ex.stagers[peer] = s
		}
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

// ensureLocked opens an append: it surfaces a pending background error
// or the stager's closure, then makes room for need more bytes, flushing
// the current batch first when it would not fit, and allocates the
// pooled batch buffer on first use.
func (s *stager) ensureLocked(need int) error {
	if err := s.takeErrLocked(); err != nil {
		return err
	}
	if s.closed {
		return fmt.Errorf("network: exchange %d released", s.ex.key.exchange)
	}
	if s.buf != nil && len(s.buf)+need > cap(s.buf) {
		if err := s.flushLocked(); err != nil {
			return err
		}
	}
	if s.buf == nil {
		size := s.ex.n.wireCfg().CoalesceBytes
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
	if cfg := s.ex.n.wireCfg(); len(s.buf)-batchHdrLen >= cfg.CoalesceBytes || cfg.CoalesceBytes <= 1 {
		return s.flushLocked()
	}
	return nil
}

// armTimerLocked schedules the deadline flush for the batch just
// started; the generation check discards the timer if a size/EOF flush
// beat it.
func (s *stager) armTimerLocked() {
	cfg := s.ex.n.wireCfg()
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
	err := s.ex.transmit(s.peer, buf, frames)
	block.PutBuf(buf)
	if err != nil && s.ex.n.reliable() {
		err = nil
	}
	return err
}

// discard drops any staged bytes without writing them and closes the
// stager (exchange release and node shutdown).
func (s *stager) discard() {
	s.mu.Lock()
	s.closed = true
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

// transmit ships one finished batch to a peer: acquire the exchange's
// turn on the node transmit scheduler (accounting the wait as its
// net.stall_ns), then one contiguous write on the flow's pooled
// connection.
func (ex *exchangeRec) transmit(peer int, batch []byte, frames int) error {
	n, scope := ex.n, ex.scope.Load()
	var sp *telemetry.Span
	if scope != nil {
		sp = scope.StartSpan(ex.stallSpan, "net").
			WithNode(n.id).WithBytes(int64(len(batch)))
	}
	stall := n.flow.acquire(ex.key)
	if stall > 0 {
		n.statStallNs.Add(int64(stall))
		if scope != nil {
			scope.Counter(telemetry.CtrNetStallNs).Add(int64(stall))
			scope.Counter(telemetry.ExCtr(ex.key.exchange, "stall_ns")).Add(int64(stall))
			scope.Histogram(telemetry.HistNetStall, telemetry.DurationBuckets).Observe(stall.Seconds())
			sp.End()
		}
	}
	// All traffic of one flow shares a pool slot, so per-stream frame
	// order survives the multiplexing.
	p, err := n.pool(peer)
	if err == nil {
		err = p.slot(ex.hash).write(p.addr, peer, batch)
	}
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
