package network

import (
	"testing"
	"time"

	"repro/internal/iterator"
)

// TestEphemeralPortsMeshViaSetPeer is the multi-process wiring pattern
// in miniature: two nodes listen on :0 knowing nobody, learn each
// other's bound addresses afterwards (as the membership plane would
// push them), and exchange blocks through one single-node TCPFabric
// each — each side only registers its own inboxes, exactly like two
// separate processes.
func TestEphemeralPortsMeshViaSetPeer(t *testing.T) {
	n0, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := NewTCPNode(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	for _, n := range []*TCPNode{n0, n1} {
		n.SetPeer(0, n0.Addr())
		n.SetPeer(1, n1.Addr())
	}

	f0 := NewTCPFabric(map[int]*TCPNode{0: n0})
	f1 := NewTCPFabric(map[int]*TCPNode{1: n1})
	const query, exID = 42, 3
	consumers := []int{0, 1}
	ex0 := f0.NewExchange(query, exID, 2, consumers, sch, 8, nil, nil)
	ex1 := f1.NewExchange(query, exID, 2, consumers, sch, 8, nil, nil)

	// Each process only has its local inbox; the other instance is nil.
	if ex0.Inbox(0) == nil || ex0.Inbox(1) != nil {
		t.Fatal("fabric 0 should host instance 0 only")
	}
	if ex1.Inbox(1) == nil || ex1.Inbox(0) != nil {
		t.Fatal("fabric 1 should host instance 1 only")
	}

	for p, ex := range []FabricExchange{ex0, ex1} {
		ob := ex.Outbox(p)
		for d := 0; d < 2; d++ {
			if err := ob.Send(d, mkBlock(int64(100*p+d), int64(100*p+d+10))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ob.CloseSend(); err != nil {
			t.Fatal(err)
		}
	}

	for ci, in := range []*Inbox{ex0.Inbox(0), ex1.Inbox(1)} {
		got := drainCount(t, in, 5*time.Second)
		if got != 4 { // 2 tuples from each of 2 producers
			t.Fatalf("consumer %d received %d tuples, want 4", ci, got)
		}
	}

	// Release drops every registration on both sides.
	ex0.Release()
	ex1.Release()
	if n0.OpenExchanges() != 0 || n1.OpenExchanges() != 0 {
		t.Fatalf("registrations left after release: node0=%d node1=%d",
			n0.OpenExchanges(), n1.OpenExchanges())
	}
}

// drainCount reads an inbox to end-of-stream as a query's consumer
// would, releasing every block's accounting, and returns the tuple
// count, failing the test on timeout.
func drainCount(t *testing.T, in *Inbox, timeout time.Duration) int {
	t.Helper()
	type result struct{ tuples int }
	ch := make(chan result, 1)
	go func() {
		n := 0
		for {
			b, st := in.Recv(nil)
			if st != iterator.RecvOK {
				ch <- result{n}
				return
			}
			n += b.NumTuples()
			b.Release()
		}
	}()
	select {
	case r := <-ch:
		return r.tuples
	case <-time.After(timeout):
		t.Fatal("timed out draining inbox")
		return 0
	}
}
