package network

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/iterator"
	"repro/internal/telemetry"
)

// twoTCPNodes builds a two-node loopback mesh with cleanup registered.
func twoTCPNodes(t *testing.T) (*TCPNode, *TCPNode) {
	t.Helper()
	n0, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n0.Close)
	n1, err := NewTCPNode(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n1.Close)
	peers := map[int]string{0: n0.Addr(), 1: n1.Addr()}
	n0.peers = peers
	n1.peers = peers
	return n0, n1
}

// fastRetry keeps retransmission tests quick.
var fastRetry = RetryPolicy{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond,
	Deadline: 10 * time.Second, Jitter: 0.2}

// drain reads the inbox to EOF, returning every received key in order.
func drain(t *testing.T, in *Inbox) []int64 {
	t.Helper()
	var got []int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			b, st := in.Recv(nil)
			if st != iterator.RecvOK {
				return
			}
			for i := 0; i < b.NumTuples(); i++ {
				got = append(got, b.Get(i, 0).I)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("inbox never drained")
	}
	return got
}

// TestTCPRetryRecoversFromDrops is the send window under heavy loss:
// with 30% of frame attempts dropped and 20% duplicated, every block
// must still arrive exactly once, in order, with the retries visible in
// telemetry and zero duplicates applied.
func TestTCPRetryRecoversFromDrops(t *testing.T) {
	n0, n1 := twoTCPNodes(t)
	inj := faults.New(faults.Config{Seed: 11, Drop: 0.3, Dup: 0.2})
	n0.SetFaults(inj)
	n1.SetFaults(inj)
	n0.SetRetryPolicy(fastRetry)
	n1.SetRetryPolicy(fastRetry)

	scope := telemetry.NewScope("tcp-drop")
	const exID = 4
	in := n1.RegisterInbox(0, exID, 0, 1, sch, 8, nil)
	n1.SetExchangeScope(0, exID, scope)
	ob := n0.NewOutbox(0, exID, []int{1})
	ob.SetScope(scope)

	const nBlocks = 60
	sendDone := make(chan error, 1)
	go func() {
		for i := 0; i < nBlocks; i++ {
			if err := ob.Send(0, mkBlock(int64(i))); err != nil {
				sendDone <- err
				return
			}
		}
		sendDone <- ob.CloseSend()
	}()

	got := drain(t, in)
	if err := <-sendDone; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if len(got) != nBlocks {
		t.Fatalf("received %d blocks, want %d", len(got), nBlocks)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("block %d holds %d: loss, reorder or double-apply", i, v)
		}
	}
	if scope.Counter(telemetry.CtrNetRetries).Load() == 0 {
		t.Error("30% drop produced no retries")
	}
	if scope.Counter(telemetry.CtrFaultsInjected).Load() == 0 {
		t.Error("no faults recorded as injected")
	}
	if n := scope.Counter(telemetry.CtrNetDupApplied).Load(); n != 0 {
		t.Errorf("%d duplicate blocks applied; sequence dedupe is broken", n)
	}
}

// TestTCPCorruptionDetectedAndRetransmitted flips payload bytes on the
// wire; the receiver's checksum must reject every corrupted frame and
// the content must arrive intact via retransmission.
func TestTCPCorruptionDetectedAndRetransmitted(t *testing.T) {
	n0, n1 := twoTCPNodes(t)
	inj := faults.New(faults.Config{Seed: 5, Corrupt: 0.4})
	n0.SetFaults(inj)
	n1.SetFaults(inj)
	n0.SetRetryPolicy(fastRetry)
	n1.SetRetryPolicy(fastRetry)

	scope := telemetry.NewScope("tcp-corrupt")
	const exID = 9
	in := n1.RegisterInbox(0, exID, 0, 1, sch, 8, nil)
	n1.SetExchangeScope(0, exID, scope)
	ob := n0.NewOutbox(0, exID, []int{1})
	ob.SetScope(scope)

	const nBlocks = 40
	sendDone := make(chan error, 1)
	go func() {
		for i := 0; i < nBlocks; i++ {
			if err := ob.Send(0, mkBlock(int64(i), int64(i+1000))); err != nil {
				sendDone <- err
				return
			}
		}
		sendDone <- ob.CloseSend()
	}()

	got := drain(t, in)
	if err := <-sendDone; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if len(got) != 2*nBlocks {
		t.Fatalf("received %d values, want %d", len(got), 2*nBlocks)
	}
	for i := 0; i < nBlocks; i++ {
		if got[2*i] != int64(i) || got[2*i+1] != int64(i+1000) {
			t.Fatalf("block %d content corrupted: %d,%d", i, got[2*i], got[2*i+1])
		}
	}
	if scope.Counter(telemetry.CtrNetCorruptDropped).Load() == 0 {
		t.Error("40% corruption rate produced no checksum rejections")
	}
}

// TestTCPSendAfterPeerClose exercises the retry-until-deadline path
// against a genuinely dead peer. Sends are windowed, so the first few
// queue without error; once the retransmission budget for the oldest
// unacked frame is exhausted the stream fails sticky, and a later Send
// (or CloseSend) must report it instead of hanging or succeeding
// silently.
func TestTCPSendAfterPeerClose(t *testing.T) {
	n0, n1 := twoTCPNodes(t)
	pol := fastRetry
	pol.MaxAttempts = 4
	n0.SetRetryPolicy(pol)
	n1.SetRetryPolicy(pol)

	const exID = 2
	n1.RegisterInbox(0, exID, 0, 1, sch, 4, nil)
	ob := n0.NewOutbox(0, exID, []int{1})
	if err := ob.Send(0, mkBlock(1)); err != nil {
		t.Fatalf("send to live peer: %v", err)
	}

	n1.Close()
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < 10000; i++ {
			if err := ob.Send(0, mkBlock(int64(i+2))); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- ob.CloseSend()
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("stream to closed peer reported success")
		}
		if !strings.Contains(err.Error(), "unacknowledged") {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("send to closed peer hung")
	}
}

// TestTCPMidStreamSeverance severs the link after a planned number of
// frames: deliveries up to the cut succeed, the next send fails fast,
// and an abort unwedges the consumer.
func TestTCPMidStreamSeverance(t *testing.T) {
	n0, n1 := twoTCPNodes(t)
	inj := faults.New(faults.Config{})
	inj.PlanSever(0, 1, 3) // cut after 3 frame attempts
	n0.SetFaults(inj)
	n1.SetFaults(inj)
	n0.SetRetryPolicy(fastRetry)
	n1.SetRetryPolicy(fastRetry)

	const exID = 6
	in := n1.RegisterInbox(0, exID, 0, 1, sch, 8, nil)
	ob := n0.NewOutbox(0, exID, []int{1})

	var sent int
	var sendErr error
	for i := 0; i < 10; i++ {
		if sendErr = ob.Send(0, mkBlock(int64(i))); sendErr != nil {
			break
		}
		sent++
	}
	if sendErr == nil {
		t.Fatal("all 10 sends succeeded across a link severed after 3 frames")
	}
	if !strings.Contains(sendErr.Error(), "severed") {
		t.Fatalf("unexpected error: %v", sendErr)
	}
	if sent < 3 {
		t.Fatalf("only %d sends landed before the planned cut at 3", sent)
	}

	// The consumer is still waiting on producers that will never close;
	// AbortExchange must unblock it with EOF.
	n1.AbortExchange(0, exID)
	if _, st := in.Recv(nil); st != iterator.RecvEOF {
		t.Fatalf("recv on aborted exchange = %v, want EOF", st)
	}
}

// TestTCPAbortUnblocksPendingSend wedges a reliable send against a full
// unconsumed inbox chain, then aborts the exchange: the send must
// return promptly with an abort error.
func TestTCPAbortUnblocksPendingSend(t *testing.T) {
	n0, n1 := twoTCPNodes(t)
	// Drop every frame attempt: no ack ever comes back, so the send can
	// only end via the abort (the deadline is effectively infinite).
	inj := faults.New(faults.Config{Drop: 1})
	slow := fastRetry
	slow.Deadline = 10 * time.Minute
	n0.SetFaults(inj)
	n0.SetRetryPolicy(slow)

	const exID = 12
	n1.RegisterInbox(0, exID, 0, 1, sch, 1, nil)
	ob := n0.NewOutbox(0, exID, []int{1})

	// Sends queue freely until the sliding window fills; the next one
	// blocks for window space that can only come from an ack.
	errCh := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if err := ob.Send(0, mkBlock(int64(i))); err != nil {
				errCh <- err
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	n0.AbortExchange(0, exID)
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("send returned %v, want abort error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not unblock the pending send")
	}
}

// TestTCPNodeGoroutineLeak asserts that a mesh that carried traffic —
// including a failed stream — leaves no goroutines behind once closed.
// This guards the regression where accept/read loops outlived errored
// queries.
func TestTCPNodeGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	n0, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := NewTCPNode(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	peers := map[int]string{0: n0.Addr(), 1: n1.Addr()}
	n0.peers = peers
	n1.peers = peers

	const exID = 3
	in := n1.RegisterInbox(0, exID, 0, 1, sch, 4, nil)
	ob := n0.NewOutbox(0, exID, []int{1})
	for i := 0; i < 8; i++ {
		if err := ob.Send(0, mkBlock(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	ob.CloseSend()
	if got := drain(t, in); len(got) != 8 {
		t.Fatalf("received %d blocks, want 8", len(got))
	}

	// A second exchange is abandoned mid-stream, as on query error.
	in2 := n1.RegisterInbox(0, exID+1, 0, 1, sch, 2, nil)
	ob2 := n0.NewOutbox(0, exID+1, []int{1})
	for i := 0; i < 2; i++ {
		if err := ob2.Send(0, mkBlock(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	n1.AbortExchange(0, exID+1)
	_ = in2

	n0.Close()
	n1.Close()

	// Goroutine counts are noisy (GC, test runner); retry with slack.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
