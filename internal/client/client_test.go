package client

import (
	"bytes"
	"io"
	"net"
	"testing"

	"repro/internal/block"
	"repro/internal/protocol"
	"repro/internal/types"
)

// TestRowsRecycleTheirBlocks plays a two-block reply to a client and
// follows the blocks it decodes: each goes back to the arena when the
// stream moves past it (the next block, the end of the stream, Close),
// and no row is read from one that already has — under -race a recycled
// buffer is poison, so a late read shows up as a wrong value.
func TestRowsRecycleTheirBlocks(t *testing.T) {
	sch := types.NewSchema(types.Col("id", types.Int64), types.Char("name", 5))
	var reply bytes.Buffer
	protocol.WriteFrame(&reply, protocol.MsgSchema, protocol.AppendSchema(nil, nil, sch))
	const perBlock, blocks = 3, 2
	for k := 0; k < blocks; k++ {
		b := block.New(sch, perBlock*sch.Stride(), nil)
		for i := 0; !b.Full(); i++ {
			r := make([]byte, b.Schema().Stride())
			types.PutValue(r, sch, 0, types.IntVal(int64(k*perBlock+i)))
			types.PutValue(r, sch, 1, types.StrVal("abc"))
			b.AppendRows(r)
		}
		protocol.WriteFrame(&reply, protocol.MsgBlock, b.EncodeAppend(nil))
	}
	protocol.WriteFrame(&reply, protocol.MsgDone, []byte{perBlock * blocks, 0, 0, 0, 0, 0, 0, 0})

	play := func(t *testing.T) *Rows {
		t.Helper()
		cli, srv := net.Pipe()
		t.Cleanup(func() { cli.Close(); srv.Close() })
		go func() {
			go io.Copy(io.Discard, srv) // the request; net.Pipe is unbuffered
			srv.Write(reply.Bytes())
		}()
		rows, err := newConn(cli).Query("SELECT 1")
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	recycled := func(b *block.Block) bool { return b.Cap() == 0 }

	t.Run("drained", func(t *testing.T) {
		rows := play(t)
		var seen []*block.Block
		for n := int64(0); rows.Next(); n++ {
			if len(seen) == 0 || seen[len(seen)-1] != rows.cur {
				seen = append(seen, rows.cur)
			}
			if v := rows.Row(); v[0].I != n || v[1].S != "abc" {
				t.Fatalf("row %d = %v", n, v)
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if len(seen) != blocks || rows.cur != nil {
			t.Fatalf("saw %d blocks, holding %v after the end; want %d and none", len(seen), rows.cur, blocks)
		}
		for i, b := range seen {
			if !recycled(b) {
				t.Errorf("block %d was not recycled", i)
			}
		}
	})
	t.Run("closed early", func(t *testing.T) {
		rows := play(t)
		if !rows.Next() {
			t.Fatal(rows.Err())
		}
		first := rows.cur
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if !recycled(first) || rows.cur != nil {
			t.Error("Close left the block it was on, or one it drained past, unrecycled")
		}
	})
}
