package network

import (
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/iterator"
	"repro/internal/telemetry"
)

// sameSlotExchanges returns two exchange ids of query q whose flows hash
// onto one pooled connection.
func sameSlotExchanges(t *testing.T, q int) (int, int) {
	t.Helper()
	for b := 2; b < 64; b++ {
		if flowHash(q, 1)%poolConns == flowHash(q, b)%poolConns {
			return 1, b
		}
	}
	t.Fatal("no two exchanges share a slot")
	return 0, 0
}

// rowBlock is one 64-row block whose values encode (producer, index),
// so a drain can check every producer's stream arrived whole and in
// order.
func rowBlock(producer, i int) *block.Block {
	vals := make([]int64, 64)
	for j := range vals {
		vals[j] = int64(producer<<32 | i)
	}
	return mkBlock(vals...)
}

// TestStalledConsumerHoldsOnlyItsOwnStreams is the socket's one flow
// control at work. Exchanges A and B share a pooled connection. A's
// consumer does not read for longer than the retry Deadline while both
// nodes keep sending to it, and B, on the same connection, still runs
// to completion. A's inbox holds no more than its bound plus one window
// per producer node, A then drains whole and in order, no stream fails
// for the stall, and nothing is retransmitted. Each of A's producers
// waited for credit through the whole hold, and that wait is what A's
// ex.<id>.stall_ns and each node's NetStats stall count.
func TestStalledConsumerHoldsOnlyItsOwnStreams(t *testing.T) {
	n0, n1 := twoTCPNodes(t)
	pol := DefaultRetryPolicy
	pol.Deadline = 100 * time.Millisecond
	n0.SetRetryPolicy(pol)
	n1.SetRetryPolicy(pol)
	const q, bound, nBlocks = 5, 2, 120
	exA, exB := sameSlotExchanges(t, q)
	scope := telemetry.NewScope("flow")
	trkA := block.NewTracker()
	inA := n1.RegisterInbox(q, exA, 0, 2, sch, bound, trkA)
	inB := n1.RegisterInbox(q, exB, 0, 1, sch, bound, nil)
	for _, n := range []*TCPNode{n0, n1} {
		n.SetExchangeScope(q, exA, scope)
		n.SetExchangeScope(q, exB, scope)
	}

	// Both nodes produce into A; neither can finish while A is stalled.
	sendA := make(chan error, 2)
	for p, n := range []*TCPNode{n0, n1} {
		ob := n.NewOutbox(q, exA, []int{1})
		go func() {
			for i := 0; i < nBlocks; i++ {
				if err := ob.Send(0, rowBlock(p, i)); err != nil {
					sendA <- err
					return
				}
			}
			sendA <- ob.CloseSend()
		}()
	}

	// B shares A's connection from n0 and completes meanwhile.
	obB := n0.NewOutbox(q, exB, []int{1})
	sendB := make(chan error, 1)
	go func() {
		for i := 0; i < nBlocks; i++ {
			if err := obB.Send(0, rowBlock(0, i)); err != nil {
				sendB <- err
				return
			}
		}
		sendB <- obB.CloseSend()
	}()
	if got := drainCount(t, inB, 10*time.Second); got != 64*nBlocks {
		t.Fatalf("exchange B received %d tuples while A stalled, want %d", got, 64*nBlocks)
	}
	if err := <-sendB; err != nil {
		t.Fatalf("exchange B's sender: %v", err)
	}

	// Hold A's consumer well past the Deadline, then check its bound.
	time.Sleep(3 * pol.Deadline)
	select {
	case err := <-sendA:
		t.Fatalf("a sender into the stalled exchange returned %v before its consumer read", err)
	default:
	}
	limit := int64((bound + windowFrames*2) * rowBlock(0, 0).SizeBytes())
	if peak := inA.PeakBufferedBytes(); peak == 0 || peak > limit {
		t.Errorf("stalled inbox held %d bytes at its peak, want (0, %d]: bound %d + %d frames × 2 producer nodes",
			peak, limit, bound, windowFrames)
	}

	next := [2]int{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			b, st := inA.Recv(nil)
			if st != iterator.RecvOK {
				return
			}
			v := b.Get(0, 0).I
			p, i := int(v>>32), int(v&0xffffffff)
			if i != next[p] {
				t.Errorf("producer %d: block %d arrived where %d was due", p, i, next[p])
			}
			next[p] = i + 1
			b.Release()
		}
	}()
	within(t, "the stalled exchange draining", done)
	if next != [2]int{nBlocks, nBlocks} {
		t.Errorf("drained %v blocks per producer, want %d each", next, nBlocks)
	}
	for range 2 {
		if err := <-sendA; err != nil {
			t.Errorf("a sender into the stalled exchange failed: %v", err)
		}
	}
	if r := scope.Counter(telemetry.CtrNetRetries).Load(); r != 0 {
		t.Errorf("net.retries = %d: a stalled consumer was taken for loss", r)
	}
	if trkA.Current() != 0 {
		t.Errorf("tracker at %d bytes after the drain", trkA.Current())
	}

	held := 3 * pol.Deadline
	stallA := time.Duration(scope.Counter(telemetry.ExCtr(exA, "stall_ns")).Load())
	if stallA < 2*held {
		t.Errorf("exchange A's stall_ns = %v, want at least %v: two producers waited for credit through a %v hold",
			stallA, 2*held, held)
	}
	for _, n := range []*TCPNode{n0, n1} {
		if _, _, _, stall, _ := n.NetStats(); stall < held {
			t.Errorf("node %d: NetStats stall = %v, want at least the %v hold", n.ID(), stall, held)
		}
	}
	stallB := scope.Counter(telemetry.ExCtr(exB, "stall_ns")).Load()
	if total := scope.Counter(telemetry.CtrNetStallNs).Load(); total != int64(stallA)+stallB {
		t.Errorf("net.stall_ns = %d, want A's %d + B's %d", total, int64(stallA), stallB)
	}
}
