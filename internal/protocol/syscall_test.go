package protocol_test

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/protocol"
	"repro/internal/session"
	"repro/internal/types"
)

// countingConn is the server's end of a connection, counting the system
// calls the server makes on it: every Write, and every Read that
// returned bytes (the one blocked waiting for the next request has not).
// hold, when set, parks every Write after the first until it is closed;
// the timeout turns a test that cannot get there into a failure instead
// of a hang.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
	hold          chan struct{}
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if c.writes.Add(1) > 1 && c.hold != nil {
		select {
		case <-c.hold:
		case <-time.After(10 * time.Second):
		}
	}
	return c.Conn.Write(p)
}

// countingListener wraps what it accepts and hands each wrapper to the
// test before the server sees the connection.
type countingListener struct {
	net.Listener
	hold  chan struct{}
	conns chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c, hold: l.hold}
	l.conns <- cc
	return cc, nil
}

// startCounting serves a trades table of the given size on a counting
// listener. Writes after a connection's first wait on hold when it is
// non-nil.
func startCounting(t *testing.T, rows int, hold chan struct{}) (string, *countingListener) {
	t.Helper()
	c := tradesCluster(t, rows)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// One slot per connection a test opens, so Accept never waits on the
	// test.
	cl := &countingListener{Listener: ln, hold: hold, conns: make(chan *countingConn, 1)}
	srv := protocol.ServeOn(cl, session.Direct{C: c})
	t.Cleanup(func() { srv.Close() })
	return srv.Addr(), cl
}

// TestOneWritePerReply counts the server's system calls on the socket.
// A reply — OK, Error, or Schema + Block + Done — is one Write (six for
// the one-block result before replies were assembled in one buffer), and
// a request is one Read (two before: header, then payload). The client
// has the whole reply before it sends again, so the counts are exact.
func TestOneWritePerReply(t *testing.T) {
	addr, cl := startCounting(t, 500, nil)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := <-cl.conns

	step := func(what string, do func()) {
		t.Helper()
		r0, w0 := sc.reads.Load(), sc.writes.Load()
		do()
		if r, w := sc.reads.Load()-r0, sc.writes.Load()-w0; r != 1 || w != 1 {
			t.Errorf("%s: %d reads and %d writes on the server's socket, want 1 and 1", what, r, w)
		}
	}
	step("PREPARE answered OK", func() {
		if _, err := conn.Prepare("lk", "SELECT acct_id, trade_volume FROM trades WHERE sec_code = $1"); err != nil {
			t.Fatal(err)
		}
	})
	step("EXECUTE answered with a one-block result", func() {
		rows, err := conn.Execute("lk", types.IntVal(3))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if n != 100 || rows.Total() != 100 {
			t.Fatalf("EXECUTE lk (3): %d rows, total %d, want 100", n, rows.Total())
		}
	})
	step("EXECUTE answered with an Error", func() {
		if _, err := conn.Execute("never_prepared"); err == nil {
			t.Fatal("EXECUTE of an unknown statement succeeded")
		}
	})
	step("ad-hoc text answered with a result", func() {
		rows, err := conn.Query("SELECT count(*) FROM trades")
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := drain(t, rows); got != "500" {
			t.Fatalf("count(*) = %q, want 500", got)
		}
	})
}

// TestLargeResultStillStreams: assembling a reply in one buffer must not
// turn into materializing it there. A result of many blocks passes the
// early-flush bound again and again, so it leaves in several writes, and
// the client has rows in hand while the server is still parked in its
// second Write.
func TestLargeResultStillStreams(t *testing.T) {
	const n = 40000 // 24-byte rows: ~1 MB, some fifteen default-size blocks
	hold := make(chan struct{})
	addr, cl := startCounting(t, n, hold)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := <-cl.conns

	rows, err := conn.Query("SELECT acct_id, sec_code, trade_volume FROM trades")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row while the rest of the result is unwritten: %v", rows.Err())
	}
	if w := sc.writes.Load(); w > 2 {
		t.Errorf("the first row took %d writes to arrive with the second one held, want it in the first", w)
	}
	close(hold)
	got := 1
	for rows.Next() {
		got++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got != n || rows.Total() != n {
		t.Errorf("streamed %d rows, total %d, want %d", got, rows.Total(), n)
	}
	w := sc.writes.Load()
	if w < 4 {
		t.Errorf("a %d-row result left in %d writes, want several", n, w)
	}
	t.Logf("a %d-row result left in %d writes", n, w)
}

// TestPipelinedRequestsAnswerInOrder writes three EXECUTE frames in one
// segment, before reading anything. The server owes three complete
// replies in request order, and — the requests being in its read buffer
// together — takes no more writes than there are replies.
func TestPipelinedRequestsAnswerInOrder(t *testing.T) {
	const n = 500
	addr, cl := startCounting(t, n, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := <-cl.conns

	prepare := append(protocol.AppendString(nil, "below"), "SELECT count(*) FROM trades WHERE acct_id < $1"...)
	if err := protocol.WriteFrame(conn, protocol.MsgPrepare, prepare); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := protocol.ReadFrame(conn, nil); err != nil || typ != protocol.MsgOK {
		t.Fatalf("PREPARE answered type %d, %v", typ, err)
	}

	bounds := []int64{1, 5, 9}
	var reqs bytes.Buffer
	for _, b := range bounds {
		pl := append(protocol.AppendString(nil, "below"), 1, 0)
		protocol.WriteFrame(&reqs, protocol.MsgExecute, protocol.AppendValue(pl, types.IntVal(b)))
	}
	w0 := sc.writes.Load()
	if _, err := conn.Write(reqs.Bytes()); err != nil {
		t.Fatal(err)
	}

	var buf []byte
	next := func() (byte, []byte) {
		t.Helper()
		typ, pl, nbuf, err := protocol.ReadFrame(conn, buf)
		buf = nbuf
		if err != nil {
			t.Fatal(err)
		}
		return typ, pl
	}
	for i, bound := range bounds {
		var want int64
		for r := 0; r < n; r++ {
			if tradesAcct(r) < bound {
				want++
			}
		}
		typ, pl := next()
		if typ != protocol.MsgSchema {
			t.Fatalf("reply %d starts with frame type %d, want a schema", i, typ)
		}
		sch, err := protocol.DecodeSchema(pl)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for typ, pl = next(); typ == protocol.MsgBlock; typ, pl = next() {
			b, err := block.Decode(sch, pl, nil)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < b.NumTuples(); r++ {
				got = append(got, types.GetValue(b.ReadRow(r, nil), sch, 0).I)
			}
		}
		if typ != protocol.MsgDone || binary.LittleEndian.Uint64(pl) != 1 {
			t.Fatalf("reply %d ends with frame type %d, payload %x; want Done for 1 row", i, typ, pl)
		}
		if len(got) != 1 || got[0] != want {
			t.Errorf("reply %d (acct_id < %d) = %v, want [%d]: replies out of request order?", i, bound, got, want)
		}
	}
	w := sc.writes.Load() - w0
	if w > int64(len(bounds)) {
		t.Errorf("%d replies took %d writes, want at most one each", len(bounds), w)
	}
	t.Logf("%d pipelined replies left in %d write(s)", len(bounds), w)
}
