package network

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/telemetry"
)

// windowFrames is a stream's credit: the frames past the last one
// received that its sender may have on the wire (16: the size the
// windowed protocol was measured at, EXPERIMENTS.md "wire protocol v2").
const windowFrames = 16

// sendWindow is one stream's sender half: its frames not yet received
// and the credit its receiver granted. An ack's seq is receipt (every
// frame up to it arrived: its buffer goes back, it is never resent);
// its credit is the highest seq the sender may send, granted while the
// consumer's inbox has room and withheld at its bound — the one
// backpressure on a socket. A producer waits in add for credit, never
// for receipts, and only frames not yet received are retransmitted and
// count against the Deadline, so a stalled consumer is never taken for
// loss. Retransmission is one time.AfterFunc per window, armed when the
// window turns busy: a healthy stream costs no goroutine.
type sendWindow struct {
	o    *TCPOutbox
	dest int // destination instance
	peer int // destination node

	mu        sync.Mutex
	space     *sync.Cond  // producers wait here for credit / drain
	pending   []*wframe   // sent, not yet received; oldest (base) first
	credit    uint64      // highest seq the receiver lets us send
	baseSince time.Time   // when pending[0] last changed; deadline anchor
	lastTx    time.Time   // when pending[0] last changed or was resent
	retx      *time.Timer // retransmission check, nil until first armed
	err       error       // sticky failure: every later send fails fast
}

// wframe is one frame in flight: its header, its wire buffer (stamped
// once, read-only after) and its retransmission state, which the window
// mutex guards.
type wframe struct {
	frameHeader
	buf      []byte // from newFrameBuf
	attempts int    // transmissions so far
	writing  int    // transmissions in progress: buf must stay
	done     bool   // received or failed: buf goes back once writing is 0
}

// errNoAddress is permanent: it fails the stream at once.
var errNoAddress = errors.New("network: no address for node")

func newSendWindow(o *TCPOutbox, dest, peer int, base uint64) *sendWindow {
	w := &sendWindow{o: o, dest: dest, peer: peer, credit: base + windowFrames - 1}
	w.space = sync.NewCond(&w.mu)
	return w
}

// retire ends a frame's life; its buffer goes back now or after the
// last transmission reading it.
func (f *wframe) retire() {
	f.done = true
	if f.writing == 0 {
		block.PutBuf(f.buf)
	}
}

// arm schedules the next retransmission check d from now.
func (w *sendWindow) arm(d time.Duration) {
	if w.retx == nil {
		w.retx = time.AfterFunc(d, w.expire)
	} else {
		w.retx.Reset(d)
	}
}

// fail marks the window dead: waiting producers wake with err, and
// every later send fails fast.
func (w *sendWindow) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
		for _, f := range w.pending {
			f.retire()
		}
		w.pending = nil
		if w.retx != nil {
			w.retx.Stop()
		}
	}
	w.mu.Unlock()
	w.space.Broadcast()
}

// advance applies an ack: pending frames up to received retire and the
// credit rises to credit (neither ever moves back).
func (w *sendWindow) advance(received, credit uint64) {
	w.mu.Lock()
	wake := false
	for len(w.pending) > 0 && w.pending[0].seq <= received {
		w.pending[0].retire()
		w.pending[0] = nil
		w.pending = w.pending[1:]
		wake = true
	}
	if wake {
		w.baseSince = time.Now()
		w.lastTx = w.baseSince
	}
	if credit > w.credit {
		w.credit = credit
		wake = true
	}
	w.mu.Unlock()
	if wake {
		w.space.Broadcast()
	}
}

// add waits for the credit to send f, then takes it (and its buffer)
// into the window. On error the buffer is still the caller's. A wait
// for credit is the producer's stall: net.stall_ns and its kin time it
// and nothing else.
func (w *sendWindow) add(f *wframe) error {
	w.mu.Lock()
	if w.err == nil && f.seq > w.credit {
		sp, t0 := w.o.ex.startStall(len(f.buf)), time.Now()
		for w.err == nil && f.seq > w.credit {
			w.space.Wait()
		}
		// Accounted after the unlock deferred below (deferred calls run
		// last in, first out), so an ack never waits on a telemetry sink.
		stall := time.Since(t0)
		defer w.o.ex.stalled(stall, sp)
	}
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	f.attempts = 1 // attempt 0 is the caller's, right after this
	if len(w.pending) == 0 {
		w.baseSince = time.Now()
		w.lastTx = w.baseSince
		w.arm(w.o.ex.n.policy().Base)
	}
	w.pending = append(w.pending, f)
	return nil
}

// attempt transmits a frame unless it retired. The write happens outside
// the window lock, so an ack never waits behind a socket write: the
// frame is pinned instead. A missing peer address fails the stream and
// is returned; other write errors are left to retransmission.
func (w *sendWindow) attempt(f *wframe, attempt int) error {
	w.mu.Lock()
	if f.done {
		w.mu.Unlock()
		return nil
	}
	f.writing++
	w.mu.Unlock()
	err := w.o.transmitFrame(w.peer, f, attempt)
	w.mu.Lock()
	if f.writing--; f.done && f.writing == 0 {
		block.PutBuf(f.buf)
	} else if !f.done && w.pending[0] == f {
		w.lastTx = time.Now() // the backoff runs from the write
	}
	w.mu.Unlock()
	if errors.Is(err, errNoAddress) {
		w.fail(err)
		return err
	}
	return nil
}

// waitDrained blocks until every frame was received or the window
// failed, and returns the failure.
func (w *sendWindow) waitDrained() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && len(w.pending) > 0 {
		w.space.Wait()
	}
	return w.err
}

// expire is the retransmission timer: once the oldest frame not yet
// received has outwaited the backoff of its latest write, the window is
// retransmitted go-back-N, and past the policy's attempts or Deadline
// the stream fails. An early check re-arms. Close joins it.
func (w *sendWindow) expire() {
	n, exchange := w.o.ex.n, w.o.ex.key.exchange
	if !n.enter() {
		return
	}
	defer n.wg.Done()
	pol := n.policy()
	w.mu.Lock()
	if w.err != nil || len(w.pending) == 0 {
		w.mu.Unlock()
		return
	}
	base := w.pending[0]
	baseSeq, att := base.seq, base.attempts
	wait := pol.Timeout(att-1, baseSeq*0x9e3779b97f4a7c15+uint64(att))
	left := wait - time.Since(w.lastTx)
	if base.writing > 0 {
		left = wait // the backoff starts when the write is done
	}
	if left > 0 {
		w.arm(left)
		w.mu.Unlock()
		return
	}
	if (pol.MaxAttempts > 0 && att >= pol.MaxAttempts) ||
		time.Since(w.baseSince) > pol.Deadline {
		w.mu.Unlock()
		w.fail(fmt.Errorf("network: send to node %d (exchange %d, seq %d) unacknowledged after %d attempts",
			w.peer, exchange, baseSeq, att))
		return
	}
	round := make([]*wframe, len(w.pending))
	attempts := make([]int, len(w.pending))
	copy(round, w.pending)
	for i, f := range round {
		attempts[i] = f.attempts
		f.attempts++
	}
	w.lastTx = time.Now()
	w.arm(pol.Timeout(att, baseSeq*0x9e3779b97f4a7c15+uint64(att+1)))
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
		if w.attempt(f, attempts[i]) != nil {
			return
		}
	}
}
