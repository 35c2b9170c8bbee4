package network

import (
	"fmt"
	"hash/crc32"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/faults"
	"repro/internal/iterator"
)

// teardownEnv is one two-node mesh of the teardown table: n0 sends, n1
// receives, every inbox charges trk.
type teardownEnv struct {
	t      *testing.T
	n0, n1 *TCPNode
	trk    *block.Tracker
}

// held is what a case keeps of an exchange's record across its release:
// the pieces a read loop or an outbox could still be holding when the
// record leaves the node's table, and an outbox opened on the live
// record that will try to send after it.
type held struct {
	ex   *exchangeRec
	wins []*sendWindow
	ob   *TCPOutbox
}

func hold(n *TCPNode, k exchangeKey) held {
	ex := n.lookup(k)
	if ex == nil {
		return held{}
	}
	h := held{ex: ex, ob: n.NewOutbox(k.query, k.exchange, []int{1 - n.ID()})}
	ex.mu.Lock()
	for _, w := range ex.wins {
		h.wins = append(h.wins, w)
	}
	ex.mu.Unlock()
	return h
}

// window returns the held send window toward instance dest, if any.
func (h held) window(dest int) *sendWindow {
	for _, w := range h.wins {
		if w.dest == dest {
			return w
		}
	}
	return nil
}

// assertEmpty checks every component of a released record: a frame that
// resolved the record just before the release is ignored, a send fails
// and writes nothing, and no window can still be retransmitting.
func (h held) assertEmpty(t *testing.T, who string) {
	t.Helper()
	if h.ex == nil {
		return
	}
	ex := h.ex
	ex.mu.Lock()
	released, nIn, nSt, nW := ex.released, len(ex.inboxes), len(ex.streams), len(ex.wins)
	ex.mu.Unlock()
	if !released || nIn+nSt+nW != 0 {
		t.Errorf("%s: released=%v with %d inboxes, %d streams, %d windows left",
			who, released, nIn, nSt, nW)
	}
	for inst := 0; inst < 2; inst++ {
		sk := streamKey{ex.key.query, ex.key.exchange, inst, 0}
		if in, v, _ := ex.accept(sk, 1<<40); in != nil || v != applyIgnore {
			t.Errorf("%s: a released record accepted a frame for instance %d (verdict %d)", who, inst, v)
		}
	}
	ex.mu.Lock()
	nSt = len(ex.streams)
	ex.mu.Unlock()
	if nSt != 0 {
		t.Errorf("%s: a late frame recorded %d watermarks on a released record", who, nSt)
	}
	// An aborted record's sends report the abort first.
	want := fmt.Sprintf("exchange %d released", ex.key.exchange)
	if ex.aborted.Load() {
		want = fmt.Sprintf("exchange %d aborted", ex.key.exchange)
	}
	before, _, _, _, _ := ex.n.NetStats()
	if err := h.ob.Send(0, mkBlock(1)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: a send after release returned %v, want %q", who, err, want)
	}
	if after, _, _, _, _ := ex.n.NetStats(); after != before {
		t.Errorf("%s: a send after release wrote %d batches", who, after-before)
	}
	for _, w := range h.wins {
		w.mu.Lock()
		err, pending := w.err, len(w.pending)
		w.mu.Unlock()
		if err == nil || pending != 0 {
			t.Errorf("%s: window to instance %d still live (err=%v, %d pending)", who, w.dest, err, pending)
		}
	}
}

// releaseBoth releases the exchange on both nodes and checks what was
// held of its records.
func (e *teardownEnv) releaseBoth(query, exchange int) {
	e.t.Helper()
	k := exchangeKey{query, exchange}
	h0, h1 := hold(e.n0, k), hold(e.n1, k)
	e.n0.ReleaseExchange(query, exchange)
	e.n1.ReleaseExchange(query, exchange)
	h0.assertEmpty(e.t, "sender")
	h1.assertEmpty(e.t, "receiver")
}

func within(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not happen within 10s", what)
	}
}

// rawFrame builds one complete wire frame: header, CRC and payload.
func rawFrame(h frameHeader, payload []byte) []byte {
	h.sum = crc32.Checksum(payload, crcTable)
	buf := append(make([]byte, frameHdrLen), payload...)
	stampFrame(buf, h)
	return buf
}

// bigBlock is a 64 KB block: the engine's frame size.
func bigBlock() *block.Block {
	vals := make([]int64, 8192)
	return mkBlock(vals...)
}

const tdQuery = 77

func teardownCleanEOF(e *teardownEnv) {
	in := e.n1.RegisterInbox(tdQuery, 1, 0, 1, sch, 4, e.trk)
	ob := e.n0.NewOutbox(tdQuery, 1, []int{1})
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		for i := 0; i < 40; i++ {
			if err := ob.Send(0, mkBlock(int64(i))); err != nil {
				e.t.Errorf("send: %v", err)
				return
			}
		}
		if err := ob.CloseSend(); err != nil {
			e.t.Errorf("close send: %v", err)
		}
	}()
	if got := drainCount(e.t, in, 10*time.Second); got != 40 {
		e.t.Errorf("received %d tuples, want 40", got)
	}
	within(e.t, "sender finishing", sendDone)
	e.releaseBoth(tdQuery, 1)
}

func teardownAbortMidStream(e *teardownEnv) {
	full := e.n1.RegisterInbox(tdQuery, 2, 0, 1, sch, 1, e.trk) // never read: fills, then backs up the stream
	idle := e.n1.RegisterInbox(tdQuery, 2, 1, 1, sch, 1, e.trk) // never fed: its Recv blocks
	ob := e.n0.NewOutbox(tdQuery, 2, []int{1, 1})

	var sent atomic.Int64
	var stop atomic.Bool
	sendDone, recvDone := make(chan struct{}), make(chan struct{})
	var sendErr error
	go func() {
		defer close(sendDone)
		for !stop.Load() {
			if sendErr = ob.Send(0, bigBlock()); sendErr != nil {
				return
			}
			sent.Add(1)
		}
	}()
	var recvSt iterator.RecvStatus
	go func() {
		defer close(recvDone)
		_, recvSt = idle.Recv(make(chan struct{}))
	}()

	// The sender is blocked once the inbox is full and its progress has
	// stopped: on the credit the full inbox withholds.
	deadline := time.Now().Add(20 * time.Second)
	for last := int64(-1); ; {
		time.Sleep(50 * time.Millisecond)
		cur := sent.Load()
		if full.Len() > 0 && cur == last {
			break
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("sender never blocked (%d blocks sent)", cur)
		}
		last = cur
	}

	// The full inbox holds its bound plus at most one window of the one
	// producer node's frames: the credit it withheld held the rest back.
	if got := full.Len(); got > 1+windowFrames {
		e.t.Errorf("a never-read inbox of bound 1 holds %d blocks, want at most %d", got, 1+windowFrames)
	}
	e.n1.AbortExchange(tdQuery, 2)
	e.n0.AbortExchange(tdQuery, 2)
	within(e.t, "blocked Recv returning after the abort", recvDone)
	if recvSt != iterator.RecvEOF {
		e.t.Errorf("blocked Recv returned %v, want EOF", recvSt)
	}
	stop.Store(true)
	within(e.t, "blocked sender returning after the abort", sendDone)
	if sendErr == nil || !strings.Contains(sendErr.Error(), "aborted") {
		e.t.Errorf("sender returned %v, want an abort error", sendErr)
	}
	if _, st := full.Recv(nil); st != iterator.RecvEOF {
		e.t.Errorf("aborted inbox recv = %v, want EOF", st)
	}
	e.releaseBoth(tdQuery, 2)
}

func teardownAbortBeforeRegistration(e *teardownEnv) {
	e.n0.AbortExchange(tdQuery, 3)
	e.n1.AbortExchange(tdQuery, 3)
	if a, b := e.n0.OpenExchanges(), e.n1.OpenExchanges(); a != 1 || b != 1 {
		e.t.Errorf("an early abort holds %d/%d records, want 1/1 (it must outlive the gap to registration)", a, b)
	}
	in := e.n1.RegisterInbox(tdQuery, 3, 0, 1, sch, 4, e.trk)
	if _, st := in.Recv(nil); st != iterator.RecvEOF {
		e.t.Errorf("recv on an exchange aborted before registration = %v, want EOF", st)
	}
	ob := e.n0.NewOutbox(tdQuery, 3, []int{1})
	err := ob.Send(0, mkBlock(1))
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		e.t.Errorf("send on an aborted exchange returned %v, want an abort error", err)
	}
	_ = ob.CloseSend()
	e.releaseBoth(tdQuery, 3)
}

func teardownReleaseThenLateFrames(e *teardownEnv) {
	const released, sentinel = 4, 5
	in := e.n1.RegisterInbox(tdQuery, released, 0, 1, sch, 4, e.trk)
	ob := e.n0.NewOutbox(tdQuery, released, []int{1})
	if err := ob.Send(0, mkBlock(1)); err != nil {
		e.t.Fatal(err)
	}
	if err := ob.CloseSend(); err != nil {
		e.t.Fatal(err)
	}
	if got := drainCount(e.t, in, 10*time.Second); got != 1 {
		e.t.Fatalf("received %d tuples, want 1", got)
	}
	// A second outbox sends toward a peer with no address: a missing
	// address is permanent, so the stream fails on the Send itself
	// instead of retransmitting until the Deadline.
	stray := e.n0.NewOutbox(tdQuery, released, []int{9})
	err := stray.Send(0, mkBlock(2))
	if err == nil || !strings.Contains(err.Error(), "no address for node 9") {
		e.t.Errorf("send toward an unknown peer returned %v, want a no-address error", err)
	}
	if err := stray.Send(0, mkBlock(3)); err == nil || !strings.Contains(err.Error(), "no address for node 9") {
		e.t.Errorf("a second send on the failed stream returned %v, want the no-address error", err)
	}
	e.releaseBoth(tdQuery, released)

	// Frames for the released key arrive late on both nodes, followed on
	// the same connection by the EOF of a live exchange: once that EOF
	// is seen, the late frames have been handled.
	late := frameHeader{query: tdQuery, exchange: released, src: 0, seq: 1 << 40}
	for _, n := range []*TCPNode{e.n0, e.n1} {
		live := n.RegisterInbox(tdQuery, sentinel, 0, 1, sch, 4, e.trk)
		data, ack, eof := late, late, late
		data.kind, ack.kind, eof.kind = frameData, frameAck, frameEOF
		eof.exchange = sentinel
		c, err := net.Dial("tcp", n.Addr())
		if err != nil {
			e.t.Fatal(err)
		}
		_, err = c.Write(slices.Concat(
			rawFrame(data, mkBlock(3).Encode(nil)), rawFrame(ack, nil), rawFrame(eof, nil)))
		c.Close()
		if err != nil {
			e.t.Fatal(err)
		}
		if got := drainCount(e.t, live, 10*time.Second); got != 0 {
			e.t.Errorf("node %d: sentinel exchange delivered %d tuples", n.ID(), got)
		}
		if open := n.OpenExchanges(); open != 1 {
			e.t.Errorf("node %d: %d records after late frames for a released key, want 1 (the sentinel)", n.ID(), open)
		}
		if n.lookup(exchangeKey{tdQuery, released}) != nil {
			e.t.Errorf("node %d: a late frame re-created the released record", n.ID())
		}
	}
	if cur := e.trk.Current(); cur != 0 {
		e.t.Errorf("late data frame was decoded: tracker at %d", cur)
	}
	e.releaseBoth(tdQuery, sentinel)
}

func teardownCloseWithOpenSends(e *teardownEnv) {
	kept := e.n1.RegisterInbox(tdQuery, 6, 0, 1, sch, 1, e.trk)
	e.n1.RegisterInbox(tdQuery, 6, 1, 1, sch, 1, e.trk)
	ob := e.n0.NewOutbox(tdQuery, 6, []int{1, 1})
	// A block decoded into the receiver's inbox and never read: Close
	// must give its tracked bytes back.
	if err := ob.Send(0, bigBlock()); err != nil {
		e.t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); kept.Len() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			e.t.Fatal("the block never reached the receiver's inbox")
		}
	}
	// Every attempt toward instance 1 is dropped before the wire, so no
	// ack ever comes: the window fills its credit and the sender blocks
	// until Close fails it.
	e.n0.SetFaults(faults.New(faults.Config{Drop: 1}))
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		for ob.Send(1, mkBlock(1)) == nil {
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		h := hold(e.n0, exchangeKey{tdQuery, 6})
		if w := h.window(1); w != nil {
			w.mu.Lock()
			n := len(w.pending)
			w.mu.Unlock()
			if n >= windowFrames {
				break
			}
		}
		if time.Now().After(deadline) {
			e.t.Fatal("send window never filled")
		}
	}
	h := hold(e.n0, exchangeKey{tdQuery, 6})
	e.n0.Close()
	within(e.t, "blocked sender returning after Close", sendDone)
	h.assertEmpty(e.t, "closed sender")
}

// TestTeardownLeavesNothing is the transport slice of "every error,
// cancel and crash path leaves nothing behind": each way an exchange
// can end must leave no record on either node, no
// goroutine, no tracked byte — and nothing on the released record that a
// late frame, ack or send could still bring back to life.
func TestTeardownLeavesNothing(t *testing.T) {
	cases := []struct {
		name string
		run  func(*teardownEnv)
	}{
		{"clean EOF", teardownCleanEOF},
		{"abort mid-stream", teardownAbortMidStream},
		{"abort before registration", teardownAbortBeforeRegistration},
		{"release then late frames", teardownReleaseThenLateFrames},
		{"close with open sends", teardownCloseWithOpenSends},
	}
	for _, tc := range cases {
		// The suffix names the protocol: the socket has one.
		t.Run(tc.name+"/reliable", func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := &teardownEnv{t: t, trk: block.NewTracker()}
			var err error
			if e.n0, err = NewTCPNode(0, "127.0.0.1:0", nil); err != nil {
				t.Fatal(err)
			}
			if e.n1, err = NewTCPNode(1, "127.0.0.1:0", nil); err != nil {
				e.n0.Close()
				t.Fatal(err)
			}
			for _, n := range []*TCPNode{e.n0, e.n1} {
				n.SetPeer(0, e.n0.Addr())
				n.SetPeer(1, e.n1.Addr())
				n.SetRetryPolicy(fastRetry)
			}
			tc.run(e)
			if t.Failed() {
				e.n0.Close()
				e.n1.Close()
				return
			}
			if tc.name != "close with open sends" {
				if a, b := e.n0.OpenExchanges(), e.n1.OpenExchanges(); a != 0 || b != 0 {
					t.Errorf("records left after release: node0=%d node1=%d", a, b)
				}
			}
			e.n0.Close()
			e.n1.Close()
			if a, b := e.n0.OpenExchanges(), e.n1.OpenExchanges(); a != 0 || b != 0 {
				t.Errorf("records left after Close: node0=%d node1=%d", a, b)
			}
			if cur := e.trk.Current(); cur != 0 {
				t.Errorf("tracker at %d bytes after teardown", cur)
			}
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
				after := runtime.NumGoroutine()
				if after <= before {
					break
				}
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("goroutines: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}
