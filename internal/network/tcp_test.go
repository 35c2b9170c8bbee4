package network

import (
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/iterator"
	"repro/internal/types"
)

func TestTCPExchangeTwoNodes(t *testing.T) {
	// Two real TCP nodes on loopback; node 0 and node 1 each produce,
	// both send to a consumer instance on each node.
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
	peers := map[int]string{0: n0.Addr(), 1: n1.Addr()}
	n0.peers = peers
	n1.peers = peers

	const exID = 7
	in0 := n0.RegisterInbox(0, exID, 0, 2, sch, 16, nil)
	in1 := n1.RegisterInbox(0, exID, 1, 2, sch, 16, nil)

	consumerNodes := []int{0, 1}
	for p, node := range []*TCPNode{n0, n1} {
		ob := node.NewOutbox(0, exID, consumerNodes)
		for d := 0; d < 2; d++ {
			if err := ob.Send(d, mkBlock(int64(100*p+d), int64(100*p+d+50))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ob.CloseSend(); err != nil {
			t.Fatal(err)
		}
	}

	for ci, in := range []*Inbox{in0, in1} {
		got := map[int64]bool{}
		deadline := time.After(5 * time.Second)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				b, st := in.Recv(nil)
				if st != iterator.RecvOK {
					return
				}
				for i := 0; i < b.NumTuples(); i++ {
					got[b.Get(i, 0).I] = true
				}
			}
		}()
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("consumer %d timed out", ci)
		}
		if len(got) != 4 {
			t.Fatalf("consumer %d received %d distinct values, want 4", ci, len(got))
		}
	}
}

func TestTCPBlockContentIntegrity(t *testing.T) {
	n0, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n0.peers = map[int]string{0: n0.Addr()}

	wide := types.NewSchema(
		types.Col("i", types.Int64),
		types.Col("f", types.Float64),
		types.Char("s", 11),
		types.Col("d", types.Date),
	)
	in := n0.RegisterInbox(0, 3, 0, 1, wide, 4, nil)
	ob := n0.NewOutbox(0, 3, []int{0})

	// Build a block with distinctive values and metadata.
	b := mkWide(wide)
	b.VisitRate = 0.75
	b.Seq = 42
	if err := ob.Send(0, b); err != nil {
		t.Fatal(err)
	}
	ob.CloseSend()

	got, st := in.Recv(nil)
	if st != iterator.RecvOK {
		t.Fatalf("recv status %v", st)
	}
	if got.VisitRate != 0.75 {
		t.Fatalf("visit rate lost in transit: %f", got.VisitRate)
	}
	if got.NumTuples() != 3 {
		t.Fatalf("tuples = %d", got.NumTuples())
	}
	if v := got.Get(1, 2).S; v != "hello world" {
		t.Fatalf("string col = %q", v)
	}
	if v := got.Get(2, 1).F; v != 2.5 {
		t.Fatalf("float col = %f", v)
	}
	if _, st := in.Recv(nil); st != iterator.RecvEOF {
		t.Fatalf("expected EOF, got %v", st)
	}
}

func mkWide(wide *types.Schema) *block.Block {
	b := block.New(wide, 1024, nil)
	for i := 0; i < 3; i++ {
		r := make([]byte, b.Schema().Stride())
		types.PutValue(r, wide, 0, types.IntVal(int64(i)))
		types.PutValue(r, wide, 1, types.FloatVal(float64(i)+0.5))
		types.PutValue(r, wide, 2, types.StrVal("hello world"))
		types.PutValue(r, wide, 3, types.DateVal(types.MustParseDate("2010-10-30")))
		b.AppendRows(r)
	}
	return b
}

// feedReadLoop runs the node's read loop over one connection carrying
// exactly data, as the accept loop would, and returns once the loop has
// dropped the connection.
func feedReadLoop(t *testing.T, n *TCPNode, data []byte) {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		_, _ = client.Write(data) // fails midway if the loop drops the connection first
		client.Close()
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.readLoop(server)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("read loop still running 10s after its connection closed")
	}
	client.Close()
}

// TestReadLoopDropsConnectionOnMalformedFrame: a frame header that
// does not parse desynchronizes the stream, so nothing after it is
// delivered — not even a well-formed frame.
func TestReadLoopDropsConnectionOnMalformedFrame(t *testing.T) {
	n, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	in := n.RegisterInbox(1, 1, 0, 1, sch, 0, nil)
	good := func(seq uint64) []byte {
		return rawFrame(frameHeader{query: 1, exchange: 1, kind: frameData, src: 1, seq: seq},
			mkBlock(7, 8).Encode(nil))
	}
	bad := good(1<<32 + 1)
	bad[0] ^= 0xFF // magic
	feedReadLoop(t, n, slices.Concat(good(1<<32), bad, good(1<<32+1)))
	if got := in.Received(); got != 2 {
		t.Fatalf("%d tuples delivered, want the 2 ahead of the malformed frame", got)
	}
}

// FuzzReadLoop feeds arbitrary bytes to the read loop of a node with
// one inbox registered. The loop must not panic or hang, bytes from a
// socket must neither create nor release an exchange record, nothing is
// delivered once the stream stops parsing, and the tuples delivered can
// never outnumber the bytes fed.
func FuzzReadLoop(f *testing.F) {
	data := rawFrame(frameHeader{query: 1, exchange: 1, kind: frameData, src: 1, seq: 1 << 32}, mkBlock(1, 2, 3).Encode(nil))
	eof := rawFrame(frameHeader{query: 1, exchange: 1, kind: frameEOF, src: 1, seq: 1<<32 + 1}, nil)
	stray := rawFrame(frameHeader{query: 9, exchange: 9, kind: frameData, src: 1, seq: 1 << 32}, mkBlock(4).Encode(nil))
	ack := rawFrame(frameHeader{query: 1, exchange: 1, kind: frameAck, src: 1, seq: 5}, make([]byte, ackPayloadLen))
	whole := slices.Concat(data, ack, stray, eof)
	f.Add(whole)
	f.Add(whole[:len(whole)-5])
	f.Add(append(slices.Clone(data), 0xEE, 0xEE, 0xEE, 0xEE))
	flipped := slices.Clone(whole)
	flipped[frameHdrLen+2] ^= 0x10 // payload bit: CRC must reject the frame
	f.Add(flipped)
	f.Add([]byte{})

	n, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(n.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := n.RegisterInbox(1, 1, 0, 1, sch, 0, nil)
		defer n.ReleaseExchange(1, 1)
		feedReadLoop(t, n, data)
		if open := n.OpenExchanges(); open != 1 {
			t.Fatalf("%d exchange records after the read loop, want the 1 registered", open)
		}
		got := in.Received()
		if got > int64(len(data)) {
			t.Fatalf("%d tuples delivered from %d bytes", got, len(data))
		}
		if _, err := parseFrameHeader(data[:min(len(data), frameHdrLen)]); err != nil && got != 0 {
			t.Fatalf("%d tuples delivered from a stream whose first frame header is malformed: %v", got, err)
		}
	})
}
