package network

import (
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/iterator"
	"repro/internal/types"
)

var sch = types.NewSchema(types.Col("k", types.Int64))

func mkBlock(vals ...int64) *block.Block {
	b := block.New(sch, len(vals)*8, nil)
	rec := make([]byte, sch.Stride())
	for _, v := range vals {
		types.PutValue(rec, sch, 0, types.IntVal(v))
		b.AppendRows(rec)
	}
	return b
}

func TestExchangeDelivery(t *testing.T) {
	tr := NewInProc()
	ex := tr.NewExchange(0, 1, 2, []int{0, 1}, sch, 16, nil, nil)
	var wg sync.WaitGroup
	// Two producers, each sending to both consumers.
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ob := ex.Outbox(p)
			for d := 0; d < ob.Destinations(); d++ {
				if err := ob.Send(d, mkBlock(int64(p*10+d))); err != nil {
					t.Error(err)
				}
			}
			if err := ob.CloseSend(); err != nil {
				t.Error(err)
			}
		}(p)
	}
	wg.Wait()
	for c := 0; c < 2; c++ {
		in := ex.Inbox(c)
		got := 0
		for {
			b, st := in.Recv(nil)
			if st == iterator.RecvEOF {
				break
			}
			if st != iterator.RecvOK {
				t.Fatalf("unexpected recv status %v", st)
			}
			got += b.NumTuples()
		}
		if got != 2 {
			t.Fatalf("consumer %d received %d tuples, want 2", c, got)
		}
		if !in.Drained() {
			t.Fatal("inbox should be drained")
		}
	}
}

func TestInboxEOFOnlyAfterAllProducers(t *testing.T) {
	tr := NewInProc()
	ex := tr.NewExchange(0, 1, 3, []int{0}, sch, 16, nil, nil)
	in := ex.Inbox(0)
	ob0 := ex.Outbox(0)
	ob0.CloseSend()
	if in.AllProducersDone() {
		t.Fatal("EOF with 2 producers outstanding")
	}
	ex.Outbox(1).CloseSend()
	ex.Outbox(2).CloseSend()
	if _, st := in.Recv(nil); st != iterator.RecvEOF {
		t.Fatalf("recv = %v, want EOF", st)
	}
}

func TestInboxRecvCancellation(t *testing.T) {
	tr := NewInProc()
	ex := tr.NewExchange(0, 1, 1, []int{0}, sch, 16, nil, nil)
	in := ex.Inbox(0)
	cancel := make(chan struct{})
	res := make(chan iterator.RecvStatus, 1)
	go func() {
		_, st := in.Recv(cancel)
		res <- st
	}()
	time.Sleep(5 * time.Millisecond)
	close(cancel)
	select {
	case st := <-res:
		if st != iterator.RecvCancelled {
			t.Fatalf("recv = %v, want Cancelled", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Recv did not return")
	}
}

func TestInboxBackpressure(t *testing.T) {
	tr := NewInProc()
	ex := tr.NewExchange(0, 1, 1, []int{0}, sch, 2, nil, nil)
	ob := ex.Outbox(0)
	ob.Send(0, mkBlock(1))
	ob.Send(0, mkBlock(2))
	sent := make(chan struct{})
	go func() {
		ob.Send(0, mkBlock(3)) // must block: capacity 2
		close(sent)
	}()
	select {
	case <-sent:
		t.Fatal("third send should have blocked")
	case <-time.After(20 * time.Millisecond):
	}
	ex.Inbox(0).Recv(nil) // free one slot
	select {
	case <-sent:
	case <-time.After(2 * time.Second):
		t.Fatal("send did not unblock after consumer progress")
	}
}

func TestInboxTrackerAccounting(t *testing.T) {
	trk := block.NewTracker()
	tr := NewInProc()
	ex := tr.NewExchange(0, 1, 1, []int{0}, sch, 0, trk, nil) // unbounded, tracked (ME mode)
	ob := ex.Outbox(0)
	for i := 0; i < 10; i++ {
		ob.Send(0, mkBlock(int64(i)))
	}
	if trk.Current() == 0 {
		t.Fatal("tracker did not account staged blocks")
	}
	peak := trk.Peak()
	in := ex.Inbox(0)
	for i := 0; i < 10; i++ {
		in.Recv(nil)
	}
	if trk.Current() != 0 {
		t.Fatalf("tracker current = %d after drain", trk.Current())
	}
	if in.PeakBufferedBytes() == 0 || peak == 0 {
		t.Fatal("peak not recorded")
	}
}

// TestInboxRecvReadyCaseAllocatesNothing pins the ready case of Recv:
// with a block buffered, a Recv holding an open cancel channel (every
// Merger.Next passes its worker's) arms no goroutine and no channel.
func TestInboxRecvReadyCaseAllocatesNothing(t *testing.T) {
	const runs = 100
	in := newInbox(1, 0, sch, nil)
	blk := mkBlock(1)
	for i := 0; i < runs+1; i++ { // AllocsPerRun makes one warm-up call
		in.put(blk)
	}
	cancel := make(chan struct{})
	allocs := testing.AllocsPerRun(runs, func() {
		if _, st := in.Recv(cancel); st != iterator.RecvOK {
			t.Fatalf("recv = %v, want OK", st)
		}
	})
	if allocs != 0 {
		t.Fatalf("Recv with a buffered block allocates %.1f times, want 0", allocs)
	}
}

// TestInboxWakesEveryWaiter checks the ready token reaches all blocked
// consumers: one per block while data flows, and every one at EOF.
func TestInboxWakesEveryWaiter(t *testing.T) {
	const waiters = 8
	in := newInbox(1, 0, sch, nil)
	res := make(chan iterator.RecvStatus, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, st := in.Recv(make(chan struct{}))
			res <- st
		}()
	}
	for i := 0; i < waiters/2; i++ {
		in.put(mkBlock(int64(i)))
	}
	in.producerDone()
	got := map[iterator.RecvStatus]int{}
	for i := 0; i < waiters; i++ {
		select {
		case st := <-res:
			got[st]++
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d waiters woke: %v", i, waiters, got)
		}
	}
	if got[iterator.RecvOK] != waiters/2 || got[iterator.RecvEOF] != waiters/2 {
		t.Fatalf("statuses %v, want %d OK and %d EOF", got, waiters/2, waiters/2)
	}
}

// TestInboxCancelDoesNotStrandBlocks races a shrink (cancel) against an
// arriving block with two consumers asleep: whichever of them the ready
// token wakes, the block must reach a consumer — a cancelled waiter that
// swallowed the token would leave the other asleep beside a full queue.
// A stress test: the window (cancel closing between the token's wake and
// the waiter's next look at the queue) is a few microseconds wide.
func TestInboxCancelDoesNotStrandBlocks(t *testing.T) {
	for i := 0; i < 1000; i++ {
		in := newInbox(1, 1, sch, nil)
		cancel := make(chan struct{})
		got := make(chan iterator.RecvStatus, 2)
		// The cancellable consumer parks first, so the token goes to it.
		for _, c := range []chan struct{}{cancel, nil} {
			go func(c <-chan struct{}) {
				_, st := in.Recv(c)
				got <- st
			}(c)
			time.Sleep(100 * time.Microsecond)
		}
		go close(cancel)
		in.put(mkBlock(int64(i)))
		delivered := false
		for n := 0; n < 2 && !delivered; n++ {
			select {
			case st := <-got:
				delivered = st == iterator.RecvOK
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: a block is queued and no consumer woke for it", i)
			}
		}
		if !delivered {
			t.Fatalf("round %d: both consumers returned without the block", i)
		}
		in.Abandon() // releases whichever consumer is still waiting
	}
}
