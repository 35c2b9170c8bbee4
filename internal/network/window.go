package network

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/telemetry"
)

// windowFrames is the reliable path's window: frames of one stream in
// flight unacknowledged before the producer blocks. 16 is the size the
// windowed protocol was measured at against stop-and-wait (EXPERIMENTS.md,
// "wire protocol v2"); 1 would be stop-and-wait again.
const windowFrames = 16

// sendWindow is the reliable path's per-stream sliding window: up to
// windowFrames frames of one (query, exchange, destination instance)
// stream may be on the wire unacknowledged before the producer blocks.
// The receiver acknowledges cumulatively (ack seq s covers every frame
// ≤ s), and a pump goroutine retransmits the whole window go-back-N
// style when the oldest unacked frame times out — replacing v1's
// stop-and-wait, which paid a full ack round trip per frame. Each frame
// keeps the pooled batch buffer its block was encoded into until acked,
// so retransmissions do not depend on the caller's block.
type sendWindow struct {
	o    *TCPOutbox
	dest int // destination instance
	peer int // destination node

	mu        sync.Mutex
	space     *sync.Cond // producer waits here for window space / drain
	pending   []*wframe  // oldest (base) first; all unacked
	baseSince time.Time  // when pending[0] last changed; deadline anchor
	err       error      // sticky failure: every later send fails fast
	closed    bool       // stream drained, pump may exit

	kick chan struct{} // cap-1 signal: work arrived / acked / failed
}

// wframe is one in-flight frame: its header (the true checksum
// included), its one-frame batch buffer and the retransmission state
// the fault verdicts key on. attempts, acked and the buffer's header
// bytes (re-stamped per attempt) are guarded by the window mutex; the
// header is immutable after add.
type wframe struct {
	frameHeader
	buf      []byte // from newFrameBuf
	attempts int    // transmissions so far
	acked    bool   // delivered; buf returned to the arena
}

func newSendWindow(o *TCPOutbox, dest, peer int) *sendWindow {
	w := &sendWindow{o: o, dest: dest, peer: peer, kick: make(chan struct{}, 1)}
	w.space = sync.NewCond(&w.mu)
	return w
}

func (w *sendWindow) signal() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// fail marks the window dead: the pump exits, blocked producers wake
// with err, and every later send fails fast.
func (w *sendWindow) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
		for _, f := range w.pending {
			f.acked = true
			block.PutBuf(f.buf)
		}
		w.pending = nil
	}
	w.mu.Unlock()
	w.space.Broadcast()
	w.signal()
}

// advance applies a cumulative ack: every pending frame with seq ≤ ack
// is delivered, its buffer returned to the arena.
func (w *sendWindow) advance(ack uint64) {
	w.mu.Lock()
	popped := false
	for len(w.pending) > 0 && w.pending[0].seq <= ack {
		f := w.pending[0]
		f.acked = true
		block.PutBuf(f.buf)
		w.pending[0] = nil
		w.pending = w.pending[1:]
		popped = true
	}
	if popped {
		w.baseSince = time.Now()
	}
	w.mu.Unlock()
	if popped {
		w.space.Broadcast()
		w.signal()
	}
}

// add takes a window slot for one frame, blocking while the window is
// full; from then on the window owns the frame's buffer. On error the
// buffer is still the caller's.
func (w *sendWindow) add(f *wframe) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && len(w.pending) >= windowFrames {
		w.space.Wait()
	}
	if w.err != nil {
		return w.err
	}
	// attempts starts at 1: attempt 0 is the caller's imminent initial
	// transmission, so a pump timeout that races it just retransmits.
	f.attempts = 1
	if len(w.pending) == 0 {
		w.baseSince = time.Now()
	}
	w.pending = append(w.pending, f)
	w.signal()
	return nil
}

// attempt makes one transmission attempt of a frame while holding the
// window lock: a concurrent cumulative ack returns the frame's buffer to
// the arena, so the write (which reads it) and the release must be
// mutually exclusive. Frames acked or failed in the meantime are
// skipped.
func (w *sendWindow) attempt(f *wframe, attempt int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if f.acked || w.err != nil {
		return
	}
	w.o.transmitFrame(w.peer, f, attempt)
}

// waitDrained blocks until every pending frame is acknowledged (or the
// window failed), then retires the window. Stream-level failures —
// retransmission budget exhausted, exchange aborted — surface here and
// on subsequent sends, not on the Send that queued the frame.
func (w *sendWindow) waitDrained() error {
	w.mu.Lock()
	for w.err == nil && len(w.pending) > 0 {
		w.space.Wait()
	}
	err := w.err
	w.closed = true
	w.mu.Unlock()
	w.signal()
	return err
}

// pump is the window's retransmission driver: whenever the oldest
// unacked frame has waited out the retry policy's backoff, the whole
// window is retransmitted in order (go-back-N). Runs until the stream
// drains or the window fails; registered on the node's waitgroup so
// Close joins it.
func (w *sendWindow) pump() {
	n, exchange := w.o.ex.n, w.o.ex.key.exchange
	defer n.wg.Done()
	pol := n.policy()
	for {
		w.mu.Lock()
		if w.err != nil {
			w.mu.Unlock()
			return
		}
		if len(w.pending) == 0 {
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return
			}
			<-w.kick
			continue
		}
		base := w.pending[0]
		baseSeq, att := base.seq, base.attempts
		since := w.baseSince
		w.mu.Unlock()

		// att transmissions have happened; wait out the backoff of the
		// latest one before retransmitting.
		wait := pol.Timeout(att-1, baseSeq*0x9e3779b97f4a7c15+uint64(att))
		timer := time.NewTimer(wait)
		select {
		case <-w.kick:
			timer.Stop()
			continue
		case <-timer.C:
		}

		w.mu.Lock()
		if w.err != nil || len(w.pending) == 0 ||
			w.pending[0] != base || base.attempts != att {
			// Acked or already retransmitted while the timer ran.
			w.mu.Unlock()
			continue
		}
		if (pol.MaxAttempts > 0 && att >= pol.MaxAttempts) ||
			time.Since(since) > pol.Deadline {
			w.mu.Unlock()
			w.fail(fmt.Errorf("network: send to node %d (exchange %d, seq %d) unacknowledged after %d attempts",
				w.peer, exchange, baseSeq, att))
			return
		}
		// Go-back-N: retransmit the whole window in order. Attempt
		// numbers (the fault-verdict coordinate) advance under the lock;
		// the wire work happens outside it.
		round := make([]*wframe, len(w.pending))
		attempts := make([]int, len(w.pending))
		copy(round, w.pending)
		for i, f := range round {
			attempts[i] = f.attempts
			f.attempts++
		}
		w.mu.Unlock()

		if inj := n.faults(); inj.Severed(n.id, w.peer) {
			w.o.emitFault("sever", w.peer, baseSeq, 0)
			w.fail(fmt.Errorf("network: link %d->%d severed", n.id, w.peer))
			return
		}
		for i, f := range round {
			if scope := w.o.ex.scope.Load(); scope != nil {
				scope.Counter(telemetry.CtrNetRetries).Inc()
				scope.Emit(telemetry.NetRetry{
					Exchange: exchange, From: n.id, To: w.peer, Seq: f.seq,
					Attempt: attempts[i], Backoff: wait, Cause: "timeout",
				})
			}
			w.attempt(f, attempts[i])
		}
	}
}
