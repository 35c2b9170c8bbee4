// Package client is the Go driver for the cluster's streaming query
// protocol (internal/protocol): connect, prepare, execute, and stream
// result rows over one TCP connection per session.
//
// A Conn is one session: prepared statements live on the server side
// of the connection and die with it. A Conn serves one request at a
// time (the server would answer several in order; this driver does not
// yet send them) and is not safe for concurrent use — the intended
// shape for high-QPS serving is many connections, each owned by one
// client goroutine, firing prepared EXECUTEs in a tight loop. A request
// is one write on the socket, header and payload together.
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
	buf     []byte // frame read buffer, reused
	scratch []byte // the request frame being built, reused
	rows    *Rows  // in-flight result stream, if any
	err     error  // sticky protocol-level failure
}

// Dial connects to a protocol server.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return newConn(c), nil
}

func newConn(c net.Conn) *Conn { return &Conn{c: c, r: bufio.NewReader(c)} }

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

// roundTrip closes the request frame built in c.scratch (BeginFrame,
// then the payload), writes it in one write and reads the first
// response frame.
func (c *Conn) roundTrip() (byte, []byte, error) {
	protocol.EndFrame(c.scratch)
	if _, err := c.c.Write(c.scratch); err != nil {
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
	c.scratch = append(protocol.BeginFrame(c.scratch[:0], protocol.MsgQuery), sql...)
	return c.finishQuery(c.roundTrip())
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
	c.scratch = protocol.AppendString(protocol.BeginFrame(c.scratch[:0], protocol.MsgPrepare), name)
	c.scratch = append(c.scratch, sql...)
	typ, pl, err := c.roundTrip()
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
	c.scratch = protocol.AppendString(protocol.BeginFrame(c.scratch[:0], protocol.MsgExecute), name)
	c.scratch = binary.LittleEndian.AppendUint16(c.scratch, uint16(len(args)))
	for i, v := range args {
		if v.Kind == types.String && !v.Null {
			if err := fitsU16(fmt.Sprintf("string argument $%d", i+1), len(v.S)); err != nil {
				return nil, err
			}
		}
		c.scratch = protocol.AppendValue(c.scratch, v)
	}
	return c.finishQuery(c.roundTrip())
}

// Deallocate drops a prepared statement.
func (c *Conn) Deallocate(name string) error {
	if err := c.ready(); err != nil {
		return err
	}
	if err := fitsU16("statement name", len(name)); err != nil {
		return err
	}
	c.scratch = protocol.AppendString(protocol.BeginFrame(c.scratch[:0], protocol.MsgDealloc), name)
	typ, pl, err := c.roundTrip()
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
// the connection for the next request. A decoded block is this Rows'
// own (block ownership, DESIGN.md §10): it goes back to the arena when
// the stream moves past it.
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

// fetch pulls the next frame of the stream. Both callers are done with
// the current block — Next has walked it, Close is discarding the rest —
// so it is recycled first, whatever the frame turns out to be.
func (r *Rows) fetch() bool {
	if r.cur != nil {
		r.cur.Recycle()
		r.cur = nil
	}
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

// Row returns the values of the row the last Next advanced to; it may
// be called only after a Next that returned true. The values are valid
// until the next Next: the slice is reused, and the block they were read
// from is recycled when the stream moves past it.
func (r *Rows) Row() []types.Value {
	if cap(r.vals) < len(r.sch.Cols) {
		r.vals = make([]types.Value, len(r.sch.Cols))
	}
	r.vals = r.vals[:len(r.sch.Cols)]
	for i := range r.sch.Cols {
		r.vals[i] = r.cur.Get(r.idx-1, i)
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
