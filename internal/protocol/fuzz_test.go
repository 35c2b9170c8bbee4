package protocol

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/session"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// FuzzDispatch feeds arbitrary request frames to the server's dispatch
// over a real session on a tiny in-process cluster: whatever the bytes,
// it must not panic, and an EXECUTE it decodes must re-encode — name,
// count, values — to exactly the payload it came from. That round trip
// is what a length field wrapped at 65536 breaks: the server used to run
// the part that parsed and ignore the rest. Each input starts from a
// session that has prepared "lk" (one typed slot) and "eq" (two slots
// nothing types, so values of any kind reach the comparison kernels).
func FuzzDispatch(f *testing.F) {
	cat := catalog.New(2)
	sch := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("trade_date", types.Date),
		types.Col("trade_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{Name: "trades", Schema: sch, PartKey: []int{1}})
	c := engine.NewCluster(engine.Config{Nodes: 2, CoresPerNode: 2, FastPath: true}, cat)
	f.Cleanup(c.Close)
	tl, err := c.NewTableLoader("trades")
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r := tl.Row()
		types.PutValue(r, sch, 0, types.IntVal(int64(i%7)))
		types.PutValue(r, sch, 1, types.IntVal(int64(i%3)))
		types.PutValue(r, sch, 2, types.DateVal(int64(14000+i%2)))
		types.PutValue(r, sch, 3, types.FloatVal(float64(i)))
		tl.Add()
	}
	tl.Close()
	prepared := map[string]string{
		"lk": "SELECT acct_id, trade_volume FROM trades WHERE sec_code = $1",
		"eq": "SELECT count(*) FROM trades WHERE $1 = $2",
	}

	execute := func(name string, args ...types.Value) []byte {
		pl := binary.LittleEndian.AppendUint16(AppendString(nil, name), uint16(len(args)))
		for _, v := range args {
			pl = AppendValue(pl, v)
		}
		return pl
	}
	f.Add(byte(MsgQuery), []byte("SELECT count(*) FROM trades WHERE trade_volume < 5"))
	f.Add(byte(MsgQuery), []byte("EXECUTE lk (1)"))
	f.Add(byte(MsgPrepare), append(AppendString(nil, "p"), "SELECT acct_id FROM trades WHERE trade_date = $1"...))
	f.Add(byte(MsgExecute), execute("lk", types.IntVal(1)))
	f.Add(byte(MsgExecute), execute("lk", types.FloatVal(2)))
	f.Add(byte(MsgExecute), execute("eq", types.StrVal("a"), types.Value{Null: true}))
	f.Add(byte(MsgExecute), execute("eq", types.DateVal(14000), types.IntVal(14000)))
	f.Add(byte(MsgExecute), append(execute("lk", types.IntVal(1)), 0))   // one byte too many
	f.Add(byte(MsgExecute), append(AppendString(nil, "lk"), 0xff, 0xff)) // 65 535 arguments, none present
	f.Add(byte(MsgDealloc), AppendString(nil, "lk"))

	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		sess := session.New(session.Direct{C: c})
		for name, text := range prepared {
			if _, err := sess.Prepare(name, text); err != nil {
				t.Fatal(err)
			}
		}
		// The error is the statement's or the frame's own business; the
		// property is that dispatch returns at all.
		_ = (&Server{}).dispatch(sess, newFrameWriter(io.Discard, &telemetry.Counter{}), typ, payload)

		if typ != MsgExecute {
			return
		}
		name, args, err := decodeExecute(payload)
		if err != nil {
			return
		}
		if again := execute(name, args...); !bytes.Equal(again, payload) {
			t.Fatalf("EXECUTE %q with %d arguments was accepted from a %d-byte payload but re-encodes to %d bytes:\n%x\nvs\n%x",
				name, len(args), len(payload), len(again), payload, again)
		}
	})
}

// TestDecodeExecuteBoundsItsAllocation: the argument count is a u16 off
// the socket, and the slice for the arguments is made before any of them
// is decoded. A count the payload cannot hold (every value is at least
// a byte) is refused before that, so a 6-byte payload costs no
// 65 535-value slice.
func TestDecodeExecuteBoundsItsAllocation(t *testing.T) {
	payload := append(AppendString(nil, "lk"), 0xff, 0xff)
	if _, _, err := decodeExecute(payload); err == nil {
		t.Fatal("65 535 arguments declared in 0 bytes: want an error")
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decodeExecute(payload)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4096 {
		t.Errorf("refusing it allocated %d bytes a call", per)
	}
}
