package protocol_test

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/session"
	"repro/internal/types"
)

// tradesAcct is the acct_id of row i of the trades table.
func tradesAcct(i int) int64 { return int64(i % 13) }

// tradesCluster boots a cluster with a trades table of the given size.
func tradesCluster(t *testing.T, rows int) *engine.Cluster {
	t.Helper()
	cat := catalog.New(2)
	sch := types.NewSchema(
		types.Col("acct_id", types.Int64),
		types.Col("sec_code", types.Int64),
		types.Col("trade_volume", types.Float64),
	)
	cat.MustAdd(&catalog.Table{Name: "trades", Schema: sch, PartKey: []int{1}})
	c := engine.NewCluster(engine.Config{Nodes: 2, CoresPerNode: 2, FastPath: true}, cat)
	t.Cleanup(c.Close)
	tl, err := c.NewTableLoader("trades")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		r := tl.Row()
		types.PutValue(r, sch, 0, types.IntVal(tradesAcct(i)))
		types.PutValue(r, sch, 1, types.IntVal(int64(i%5)))
		types.PutValue(r, sch, 2, types.FloatVal(float64(i)))
		tl.Add()
	}
	tl.Close()
	return c
}

// startServer serves a 500-row trades table on an ephemeral port.
func startServer(t *testing.T) (string, *engine.Cluster) {
	t.Helper()
	c := tradesCluster(t, 500)
	srv, err := protocol.Serve("127.0.0.1:0", session.Direct{C: c})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr(), c
}

// drain collects a result stream order-insensitively.
func drain(t *testing.T, rows *client.Rows) (string, uint64) {
	t.Helper()
	var out []string
	for rows.Next() {
		vals := rows.Row()
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return strings.Join(out, "\n"), rows.Total()
}

// TestQueryRoundTrip streams an ad-hoc query through the wire protocol
// and checks it against the same query run in-process.
func TestQueryRoundTrip(t *testing.T) {
	addr, c := startServer(t)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	q := "SELECT acct_id, sum(trade_volume) AS vol FROM trades GROUP BY acct_id"
	rows, err := conn.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rows == nil {
		t.Fatal("query with a result set returned nil rows")
	}
	if got := rows.Schema().Cols[1].Name; got != "vol" {
		t.Errorf("schema display name = %q, want vol", got)
	}
	wire, total := drain(t, rows)

	local, err := c.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	var exp []string
	for _, vals := range local.Rows() {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = v.String()
		}
		exp = append(exp, strings.Join(parts, "|"))
	}
	sort.Strings(exp)
	if want := strings.Join(exp, "\n"); wire != want {
		t.Errorf("wire result differs from in-process:\n%s\nvs\n%s", wire, want)
	}
	if int(total) != local.NumRows() {
		t.Errorf("MsgDone total = %d, want %d", total, local.NumRows())
	}
}

// TestPrepareExecuteOverWire exercises the binary PREPARE/EXECUTE
// frames: parameter count, bound execution, deallocate, and the
// fingerprint-identity with ad-hoc SQL.
func TestPrepareExecuteOverWire(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	n, err := conn.Prepare("lookup", "SELECT acct_id, trade_volume FROM trades WHERE sec_code = $1")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Prepare reported %d params, want 1", n)
	}

	for _, sec := range []int64{0, 2, 4} {
		rows, err := conn.Execute("lookup", types.IntVal(sec))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := drain(t, rows)
		adhoc, err := conn.Query(fmt.Sprintf(
			"SELECT acct_id, trade_volume FROM trades WHERE sec_code = %d", sec))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := drain(t, adhoc)
		if got != want {
			t.Errorf("sec_code=%d: EXECUTE and ad-hoc differ:\n%s\nvs\n%s", sec, got, want)
		}
		if got == "" {
			t.Errorf("sec_code=%d: empty result", sec)
		}
	}

	if err := conn.Deallocate("lookup"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Execute("lookup", types.IntVal(0)); err == nil {
		t.Error("EXECUTE after Deallocate should fail")
	}
}

// TestTextualSessionOverWire drives PREPARE/EXECUTE as SQL text through
// MsgQuery — the path a plain REPL uses.
func TestTextualSessionOverWire(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	rows, err := conn.Query("PREPARE c AS SELECT count(*) FROM trades WHERE sec_code = $1")
	if err != nil {
		t.Fatal(err)
	}
	if rows != nil {
		t.Fatal("PREPARE returned a result set")
	}
	rows, err = conn.Query("EXECUTE c (1)")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := drain(t, rows)
	if got != "100" {
		t.Errorf("EXECUTE c (1) = %q, want 100", got)
	}
}

// TestStatementErrorKeepsConnection checks the error contract: a bad
// statement comes back as MsgError and the connection keeps serving.
func TestStatementErrorKeepsConnection(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Query("SELECT * FROM no_such_table"); err == nil {
		t.Fatal("query against missing table should fail")
	}
	if _, err := conn.Execute("never_prepared"); err == nil {
		t.Fatal("EXECUTE of unknown statement should fail")
	}

	// The session survives both failures.
	rows, err := conn.Query("SELECT count(*) FROM trades")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := drain(t, rows)
	if got != "500" {
		t.Errorf("count after errors = %q, want 500", got)
	}
}

// TestManyConnections runs concurrent sessions, each preparing its own
// statement and executing it repeatedly — the high-QPS serving shape.
func TestManyConnections(t *testing.T) {
	addr, _ := startServer(t)

	const conns = 8
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		go func(id int) {
			errs <- func() error {
				conn, err := client.Dial(addr)
				if err != nil {
					return err
				}
				defer conn.Close()
				if _, err := conn.Prepare("p", "SELECT count(*) FROM trades WHERE sec_code = $1"); err != nil {
					return err
				}
				for j := 0; j < 20; j++ {
					rows, err := conn.Execute("p", types.IntVal(int64((id+j)%5)))
					if err != nil {
						return err
					}
					n := 0
					for rows.Next() {
						n++
					}
					if err := rows.Close(); err != nil {
						return err
					}
					if n != 1 {
						return fmt.Errorf("conn %d exec %d: %d rows, want 1", id, j, n)
					}
				}
				return nil
			}()
		}(i)
	}
	for i := 0; i < conns; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestClientRefusesWhatU16CannotCarry: a name, a string argument or an
// argument count beyond 65535 would be written modulo 65536 and the
// server would run the statement on the truncated remainder. The client
// must fail the request before writing anything, and the connection must
// stay usable.
func TestClientRefusesWhatU16CannotCarry(t *testing.T) {
	addr, _ := startServer(t)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Prepare("eq", "SELECT count(*) FROM trades WHERE $1 = $2"); err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", 70000)
	if _, err := conn.Execute("eq", types.StrVal(long), types.StrVal(long[:4464])); err == nil {
		t.Error("70 000-byte string argument: want an error")
	}
	if _, err := conn.Execute("eq", make([]types.Value, 65536)...); err == nil {
		t.Error("65 536 arguments: want an error")
	}
	if _, err := conn.Prepare(long, "SELECT count(*) FROM trades"); err == nil {
		t.Error("PREPARE under a 70 000-byte name: want an error")
	}
	if _, err := conn.Execute(long); err == nil {
		t.Error("EXECUTE of a 70 000-byte name: want an error")
	}
	if err := conn.Deallocate(long); err == nil {
		t.Error("DEALLOCATE of a 70 000-byte name: want an error")
	}

	rows, err := conn.Execute("eq", types.StrVal("x"), types.StrVal("x"))
	if err != nil {
		t.Fatalf("the connection did not survive the refused requests: %v", err)
	}
	if got, _ := drain(t, rows); got != "500" {
		t.Errorf("EXECUTE eq ('x', 'x') = %q, want 500", got)
	}
}

// TestServerRejectsTrailingBytes: payload left over after the last
// EXECUTE argument, or after a DEALLOCATE name, means the frame's length
// fields and its data disagree. The server must treat that as a protocol
// violation and drop the connection, not answer for the part that
// parsed. The EXECUTE frame is the one a client without the check above
// sends for a 70 000-byte argument: its length written as 4464.
func TestServerRejectsTrailingBytes(t *testing.T) {
	addr, _ := startServer(t)
	// "eq", two arguments, 'x', then 70 000 bytes under a u16 length.
	wrapped := append(protocol.AppendString(nil, "eq"), 2, 0, 3, 1, 0, 'x')
	wrapped = protocol.AppendValue(wrapped, types.StrVal(strings.Repeat("x", 70000)))
	for _, tc := range []struct {
		name    string
		typ     byte
		payload []byte
	}{
		{"EXECUTE", protocol.MsgExecute, wrapped},
		{"DEALLOCATE", protocol.MsgDealloc, append(protocol.AppendString(nil, "eq"), "junk"...)},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		prepare := append(protocol.AppendString(nil, "eq"), "SELECT count(*) FROM trades WHERE $1 = $2"...)
		if err := protocol.WriteFrame(conn, protocol.MsgPrepare, prepare); err != nil {
			t.Fatal(err)
		}
		if typ, _, _, err := protocol.ReadFrame(conn, nil); err != nil || typ != protocol.MsgOK {
			t.Fatalf("%s: PREPARE answered type %d, %v", tc.name, typ, err)
		}
		if err := protocol.WriteFrame(conn, tc.typ, tc.payload); err != nil {
			t.Fatal(err)
		}
		if typ, pl, _, err := protocol.ReadFrame(conn, nil); err == nil {
			t.Errorf("%s with trailing bytes was answered (type %d, %q); want the connection dropped", tc.name, typ, pl)
		}
		conn.Close()
	}
}
