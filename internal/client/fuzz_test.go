package client

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/protocol"
	"repro/internal/types"
)

// replyTypes are the frame types a fuzz input can name; the last entry
// is one the protocol does not define.
var replyTypes = [...]byte{protocol.MsgSchema, protocol.MsgBlock, protocol.MsgDone, protocol.MsgError, protocol.MsgOK, 0xee}

// chunk appends one frame to a fuzz input: a type selector, a u16
// payload length, the payload. frames undoes it.
func chunk(dst []byte, sel byte, payload []byte) []byte {
	dst = append(dst, sel, byte(len(payload)), byte(len(payload)>>8))
	return append(dst, payload...)
}

// frames renders a fuzz input as the EPQ1 reply stream it describes.
// Every byte string maps to some sequence of well-framed replies (a
// length running past the input is clipped), so the fuzzer spends its
// time on the payload decoders rather than on the magic number.
func frames(data []byte) []byte {
	var out bytes.Buffer
	for len(data) >= 3 {
		typ := replyTypes[int(data[0])%len(replyTypes)]
		n := min(int(data[1])|int(data[2])<<8, len(data)-3)
		protocol.WriteFrame(&out, typ, data[3:3+n])
		data = data[3+n:]
	}
	return out.Bytes()
}

// FuzzClientReply plays an arbitrary sequence of SCHEMA / BLOCK / DONE /
// ERROR / OK / unknown frames to a client that has just sent a query,
// over a net.Pipe whose server end closes after the last frame. Whatever
// the server says, the client must not panic and must finish: Rows ends
// in an error or a clean end of stream, having produced no more rows
// than the reply had bytes to carry them.
func FuzzClientReply(f *testing.F) {
	sch := types.NewSchema(types.Col("id", types.Int64), types.Char("name", 5))
	b := block.New(sch, 3*sch.Stride(), nil)
	for i := 0; !b.Full(); i++ {
		r := make([]byte, b.Schema().Stride())
		types.PutValue(r, sch, 0, types.IntVal(int64(i)))
		types.PutValue(r, sch, 1, types.StrVal("abc"))
		b.AppendRows(r)
	}
	schema := protocol.AppendSchema(nil, nil, sch)
	blk := b.EncodeAppend(nil)
	done := []byte{3, 0, 0, 0, 0, 0, 0, 0}
	for _, seed := range [][]byte{
		// A whole result; an error mid-stream; the server gone mid-stream.
		chunk(chunk(chunk(nil, 0, schema), 1, blk), 2, done),
		chunk(chunk(chunk(nil, 0, schema), 1, blk), 3, []byte("boom")),
		chunk(chunk(nil, 0, schema), 1, blk),
		// A truncated block; a frame type the protocol does not define.
		chunk(chunk(nil, 0, schema), 1, blk[:len(blk)-1]),
		chunk(chunk(nil, 0, schema), 5, nil),
		// Schemas no server sends: a CHAR(0) column, an undefined column
		// kind followed by a row of it, no columns and 2^31 "rows".
		chunk(nil, 0, []byte{1, 0, 1, 0, 'c', byte(types.String), 0, 0}),
		chunk(chunk(nil, 0, []byte{1, 0, 1, 0, 'c', 9, 8, 0}), 1, append([]byte{1, 0, 0, 0}, make([]byte, 28)...)),
		chunk(chunk(nil, 0, []byte{0, 0}), 1, append([]byte{0xff, 0xff, 0xff, 0x7f}, make([]byte, 20)...)),
		// No result set; a statement error.
		chunk(nil, 4, nil),
		chunk(nil, 3, []byte("no such table")),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		reply := frames(data)
		cli, srv := net.Pipe()
		defer cli.Close()
		go func() {
			defer srv.Close()
			go io.Copy(io.Discard, srv) // the request; net.Pipe is unbuffered
			srv.Write(reply)
		}()
		// No legitimate path below waits on anything but the pipe, which
		// the server end closes; the deadline turns a hang into a failure.
		cli.SetDeadline(time.Now().Add(10 * time.Second))
		c := newConn(cli)

		// A timeout means the client was still waiting for bytes after
		// the server had closed: the hang this target exists to catch.
		hung := func(err error) {
			if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
				t.Fatalf("client still waiting after the server closed: %v", err)
			}
		}
		rows, err := c.Query("SELECT 1")
		hung(err)
		if err != nil || rows == nil {
			return
		}
		n := 0
		for rows.Next() {
			if n++; n > len(reply) {
				t.Fatalf("%d rows out of a %d-byte reply", n, len(reply))
			}
			if got := len(rows.Row()); got != rows.Schema().NumCols() {
				t.Fatalf("row of %d values under a %d-column schema", got, rows.Schema().NumCols())
			}
		}
		hung(rows.Close())
	})
}
