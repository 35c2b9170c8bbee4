package network

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/iterator"
	"repro/internal/types"
)

// Send-path benchmarks over loopback TCP: small blocks (64 rows), a
// 32 KB block and the engine's 64 KB block.
// Allocations per op include the drain goroutine's decode and read
// buffers. EXPERIMENTS.md records before/after figures across the wire
// protocol's changes.

func benchSchema() *types.Schema {
	return types.NewSchema(types.Col("k", types.Int64), types.Col("v", types.Int64))
}

// benchBlock builds one block of rows tuples, 16B stride.
func benchBlock(sch *types.Schema, rows int) *block.Block {
	b := block.New(sch, rows*sch.Stride(), nil)
	for i := 0; i < rows; i++ {
		r := make([]byte, b.Schema().Stride())
		types.PutValue(r, sch, 0, types.IntVal(int64(i)))
		types.PutValue(r, sch, 1, types.IntVal(int64(i*2)))
		b.AppendRows(r)
	}
	return b
}

// benchDrain consumes an inbox until EOF, discarding blocks.
func benchDrain(in *Inbox, done chan<- int) {
	n := 0
	for {
		b, st := in.Recv(nil)
		if st != iterator.RecvOK {
			break
		}
		n += b.NumTuples()
	}
	done <- n
}

func benchPair(b *testing.B) (*TCPNode, *TCPNode) {
	b.Helper()
	n0, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	n1, err := NewTCPNode(1, "127.0.0.1:0", nil)
	if err != nil {
		n0.Close()
		b.Fatal(err)
	}
	peers := map[int]string{0: n0.Addr(), 1: n1.Addr()}
	n0.SetPeer(0, peers[0])
	n0.SetPeer(1, peers[1])
	n1.SetPeer(0, peers[0])
	n1.SetPeer(1, peers[1])
	b.Cleanup(func() { n0.Close(); n1.Close() })
	return n0, n1
}

func benchSend(b *testing.B, rows int) {
	sch := benchSchema()
	n0, n1 := benchPair(b)
	in := n1.RegisterInbox(1, 1, 0, 1, sch, 64, nil)
	ob := n0.NewOutbox(1, 1, []int{1})
	blk := benchBlock(sch, rows)
	done := make(chan int, 1)
	go benchDrain(in, done)

	b.SetBytes(int64(blk.WireSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ob.Send(0, blk); err != nil {
			b.Fatal(err)
		}
	}
	if err := ob.CloseSend(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	<-done
}

func BenchmarkTCPSendReliableSmall(b *testing.B) { benchSend(b, 64) }
func BenchmarkTCPSendReliableWide(b *testing.B)  { benchSend(b, 2048) }

// The engine's frame shape: iterator.Sender ships full Config.BlockSize
// blocks, here 4096 rows × 16 B = 64 KB.
func BenchmarkTCPSendReliableBlock(b *testing.B) { benchSend(b, 4096) }

// BenchmarkTCPRepartitionReliable is the acceptance workload shape: two
// producers each shuffling small blocks to two consumer instances on
// opposite nodes.
func BenchmarkTCPRepartitionReliable(b *testing.B) {
	sch := benchSchema()
	n0, n1 := benchPair(b)
	nodes := []*TCPNode{n0, n1}
	ins := make([]*Inbox, 2)
	obs := make([]iterator.Outbox, 2)
	for i, n := range nodes {
		ins[i] = n.RegisterInbox(1, 1, i, 2, sch, 64, nil)
	}
	for i, n := range nodes {
		obs[i] = n.NewOutbox(1, 1, []int{0, 1})
	}
	blk := benchBlock(sch, 64)
	done := make(chan int, 2)
	for i := range ins {
		go benchDrain(ins[i], done)
	}
	b.SetBytes(int64(2 * blk.WireSize()))
	b.ReportAllocs()
	b.ResetTimer()
	errCh := make(chan error, 2)
	per := b.N
	for p := 0; p < 2; p++ {
		go func(p int) {
			ob := obs[p]
			for i := 0; i < per; i++ {
				if err := ob.Send(i%2, blk); err != nil {
					errCh <- fmt.Errorf("producer %d: %w", p, err)
					return
				}
			}
			errCh <- ob.CloseSend()
		}(p)
	}
	for p := 0; p < 2; p++ {
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	<-done
	<-done
}

// Inbox benchmarks: what one block costs between a transport and a
// consumer holding an open cancel channel, as every Merger.Next does.

// BenchmarkInboxRecvReady is the ready case: the block is already there.
func BenchmarkInboxRecvReady(b *testing.B) {
	in := newInbox(1, 0, benchSchema(), nil)
	blk := benchBlock(benchSchema(), 1)
	cancel := make(chan struct{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.put(blk)
		in.Recv(cancel)
	}
}

// BenchmarkInboxPipe streams through a bounded inbox to two consumers,
// so both sides block and wake.
func BenchmarkInboxPipe(b *testing.B) {
	in := newInbox(1, 8, benchSchema(), nil)
	blk := benchBlock(benchSchema(), 1)
	b.ReportAllocs()
	go func() {
		for i := 0; i < b.N; i++ {
			in.put(blk)
		}
		in.producerDone()
	}()
	done := make(chan int, 2)
	for c := 0; c < 2; c++ {
		go benchDrainCancellable(in, done)
	}
	<-done
	<-done
}

func benchDrainCancellable(in *Inbox, done chan<- int) {
	cancel := make(chan struct{})
	n := 0
	for {
		if _, st := in.Recv(cancel); st != iterator.RecvOK {
			break
		}
		n++
	}
	done <- n
}
