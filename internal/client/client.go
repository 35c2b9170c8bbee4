// Package client is the Go driver for the cluster's streaming query
// protocol (internal/protocol): connect, prepare, execute, and stream
// result rows over one TCP connection per session.
//
// A Conn is one session: prepared statements live on the server side
// of the connection and die with it. The protocol is strictly
// request/response, so a Conn serves one request at a time and is not
// safe for concurrent use — the intended shape for high-QPS serving is
// many connections, each owned by one client goroutine, firing
// prepared EXECUTEs in a tight loop.
package client

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"

	"repro/internal/block"
	"repro/internal/protocol"
	"repro/internal/types"
)

// Conn is one client session.
type Conn struct {
	c       net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	buf     []byte // frame read buffer, reused
	scratch []byte // request build buffer, reused
	rows    *Rows  // in-flight result stream, if any
	err     error  // sticky protocol-level failure
}

// Dial connects to a protocol server.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return &Conn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}, nil
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// fail records a protocol-level failure: the stream state is no longer
// trustworthy, so every later call fails fast.
func (c *Conn) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return c.err
}

// ready guards request entry: previous failure or an undrained result.
func (c *Conn) ready() error {
	if c.err != nil {
		return c.err
	}
	if c.rows != nil {
		return errors.New("client: previous result not closed")
	}
	return nil
}

// fitsU16 refuses a length the protocol's u16 length fields cannot
// carry. The encoders would write it modulo 65536 and the server would
// run the statement on the truncated remainder, so the request fails
// here, before anything is written; the connection stays usable.
func fitsU16(what string, n int) error {
	if n > math.MaxUint16 {
		return fmt.Errorf("client: %s %d exceeds the protocol's limit of %d", what, n, math.MaxUint16)
	}
	return nil
}

// roundTrip writes one request frame and reads the first response
// frame.
func (c *Conn) roundTrip(typ byte, payload []byte) (byte, []byte, error) {
	if err := protocol.WriteFrame(c.w, typ, payload); err != nil {
		return 0, nil, c.fail(err)
	}
	if err := c.w.Flush(); err != nil {
		return 0, nil, c.fail(err)
	}
	rtyp, rpl, nbuf, err := protocol.ReadFrame(c.r, c.buf)
	c.buf = nbuf
	if err != nil {
		return 0, nil, c.fail(err)
	}
	return rtyp, rpl, nil
}

// Query runs ad-hoc SQL (including textual PREPARE/EXECUTE/DEALLOCATE)
// and returns the streaming result; a statement with no result set
// returns (nil, nil). The result must be Closed before the next
// request.
func (c *Conn) Query(sql string) (*Rows, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	return c.finishQuery(c.roundTrip(protocol.MsgQuery, []byte(sql)))
}

// Prepare pins sql (which may contain $n slots) under name on the
// server session and reports the statement's parameter count.
func (c *Conn) Prepare(name, sql string) (int, error) {
	if err := c.ready(); err != nil {
		return 0, err
	}
	if err := fitsU16("statement name", len(name)); err != nil {
		return 0, err
	}
	c.scratch = protocol.AppendString(c.scratch[:0], name)
	c.scratch = append(c.scratch, sql...)
	typ, pl, err := c.roundTrip(protocol.MsgPrepare, c.scratch)
	if err != nil {
		return 0, err
	}
	switch typ {
	case protocol.MsgOK:
		if len(pl) >= 2 {
			return int(binary.LittleEndian.Uint16(pl)), nil
		}
		return 0, nil
	case protocol.MsgError:
		return 0, errors.New(string(pl))
	}
	return 0, c.fail(fmt.Errorf("client: unexpected response type %d", typ))
}

// Execute runs a prepared statement and returns the streaming result.
func (c *Conn) Execute(name string, args ...types.Value) (*Rows, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	if err := fitsU16("statement name", len(name)); err != nil {
		return nil, err
	}
	if err := fitsU16("argument count", len(args)); err != nil {
		return nil, err
	}
	c.scratch = protocol.AppendString(c.scratch[:0], name)
	c.scratch = binary.LittleEndian.AppendUint16(c.scratch, uint16(len(args)))
	for i, v := range args {
		if v.Kind == types.String && !v.Null {
			if err := fitsU16(fmt.Sprintf("string argument $%d", i+1), len(v.S)); err != nil {
				return nil, err
			}
		}
		c.scratch = protocol.AppendValue(c.scratch, v)
	}
	return c.finishQuery(c.roundTrip(protocol.MsgExecute, c.scratch))
}

// Deallocate drops a prepared statement.
func (c *Conn) Deallocate(name string) error {
	if err := c.ready(); err != nil {
		return err
	}
	if err := fitsU16("statement name", len(name)); err != nil {
		return err
	}
	c.scratch = protocol.AppendString(c.scratch[:0], name)
	typ, pl, err := c.roundTrip(protocol.MsgDealloc, c.scratch)
	if err != nil {
		return err
	}
	switch typ {
	case protocol.MsgOK:
		return nil
	case protocol.MsgError:
		return errors.New(string(pl))
	}
	return c.fail(fmt.Errorf("client: unexpected response type %d", typ))
}

// finishQuery interprets the first response frame of a query-shaped
// request.
func (c *Conn) finishQuery(typ byte, pl []byte, err error) (*Rows, error) {
	if err != nil {
		return nil, err
	}
	switch typ {
	case protocol.MsgOK:
		return nil, nil
	case protocol.MsgError:
		return nil, errors.New(string(pl))
	case protocol.MsgSchema:
		sch, err := protocol.DecodeSchema(pl)
		if err != nil {
			return nil, c.fail(err)
		}
		c.rows = &Rows{c: c, sch: sch}
		return c.rows, nil
	}
	return nil, c.fail(fmt.Errorf("client: unexpected response type %d", typ))
}

// Rows streams one result. Blocks are pulled from the connection on
// demand: Next decodes the next row, fetching the next block frame
// when the current one is exhausted. Close drains the stream, freeing
// the connection for the next request.
type Rows struct {
	c     *Conn
	sch   *types.Schema
	cur   *block.Block
	idx   int
	total uint64
	done  bool
	err   error
	vals  []types.Value // scratch row, reused between Next calls
}

// Schema reports the result schema (display names and kinds).
func (r *Rows) Schema() *types.Schema { return r.sch }

// Next advances to the next row, fetching blocks as needed. It returns
// false at end of stream or on error (check Err).
func (r *Rows) Next() bool {
	for {
		if r.err != nil || r.done {
			return false
		}
		if r.cur != nil && r.idx < r.cur.NumTuples() {
			r.idx++
			return true
		}
		if !r.fetch() {
			return false
		}
	}
}

// fetch pulls the next frame of the stream.
func (r *Rows) fetch() bool {
	typ, pl, nbuf, err := protocol.ReadFrame(r.c.r, r.c.buf)
	r.c.buf = nbuf
	if err != nil {
		r.err = r.c.fail(err)
		return false
	}
	switch typ {
	case protocol.MsgBlock:
		b, err := block.Decode(r.sch, pl, nil)
		if err != nil {
			r.err = r.c.fail(err)
			return false
		}
		r.cur, r.idx = b, 0
		return true
	case protocol.MsgDone:
		if len(pl) >= 8 {
			r.total = binary.LittleEndian.Uint64(pl)
		}
		r.done = true
		r.c.rows = nil
		return false
	case protocol.MsgError:
		r.err = errors.New(string(pl))
		r.done = true
		r.c.rows = nil
		return false
	}
	r.err = r.c.fail(fmt.Errorf("client: unexpected stream frame %d", typ))
	return false
}

// Row returns the current row's values. The returned slice is reused
// by the next Next call.
func (r *Rows) Row() []types.Value {
	rec := r.cur.Row(r.idx - 1)
	if cap(r.vals) < len(r.sch.Cols) {
		r.vals = make([]types.Value, len(r.sch.Cols))
	}
	r.vals = r.vals[:len(r.sch.Cols)]
	for i := range r.sch.Cols {
		r.vals[i] = types.GetValue(rec, r.sch, i)
	}
	return r.vals
}

// Total reports the server's row count, valid after the stream is
// drained.
func (r *Rows) Total() uint64 { return r.total }

// Err reports the first error hit while streaming.
func (r *Rows) Err() error { return r.err }

// Close drains any remaining frames of the stream so the connection
// can serve the next request.
func (r *Rows) Close() error {
	for !r.done && r.err == nil {
		r.fetch()
	}
	if r.c.rows == r {
		r.c.rows = nil
	}
	return r.err
}
