package protocol

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/engine"
	"repro/internal/session"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// Server accepts client connections and serves each one as a session:
// requests are dispatched to the backend through per-connection
// prepared-statement state, results stream back block-by-block.
type Server struct {
	ln      net.Listener
	backend session.Backend

	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Serve listens on addr (":0" for an ephemeral port) and serves
// connections until Close.
func Serve(addr string, b session.Backend) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	return serveOn(ln, b), nil
}

// serveOn serves connections accepted from ln, which the server owns
// from here on. Tests hand it a listener that wraps what it accepts.
func serveOn(ln net.Listener, b session.Backend) *Server {
	s := &Server{ln: ln, backend: b, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr reports the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every live connection, and waits for
// their handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// readBufBytes sizes the buffer a connection's requests are read
// through: enough for header and payload of an EXECUTE or a short
// statement to arrive in one read, small enough that a thousand idle
// connections do not show in the heap. A longer request spills into the
// payload buffer directly.
const readBufBytes = 512

// serveConn runs one connection's request loop: a session is born with
// the connection and dies with it. Statement-level failures go back as
// MsgError and the session continues; protocol-level failures (bad
// magic, short reads, oversized frames) drop the connection — the
// stream can no longer be trusted.
//
// A reply is written when it is complete and the loop would otherwise
// block: that is, unless another whole request is already in the read
// buffer, in which case its reply rides in the same write. So a
// request costs one read and its reply one write, and a client that
// sends N requests back to back gets N replies in at most N writes.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	reg := telemetry.DefaultRegistry()
	w := newFrameWriter(conn, reg.Counter(telemetry.CtrProtoWrites))
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		// Replies to the requests before the one that ended the
		// connection are the client's; the error, if any, is the one
		// already being acted on.
		_ = w.flush()
		conn.Close()
	}()

	sess := session.New(s.backend)
	requests, failed := reg.Counter(telemetry.CtrProtoRequests), reg.Counter(telemetry.CtrProtoErrors)
	r := bufio.NewReaderSize(conn, readBufBytes)
	var buf []byte
	for {
		typ, payload, nbuf, err := ReadFrame(r, buf)
		buf = nbuf
		if err != nil {
			return // EOF on clean disconnect, junk otherwise; either way drop
		}
		requests.Inc()
		if err := s.dispatch(sess, w, typ, payload); err != nil {
			failed.Inc()
			if !errors.Is(err, errStatement) {
				return // write failure or protocol violation
			}
		}
		if !frameBuffered(r) {
			if err := w.flush(); err != nil {
				return
			}
		}
	}
}

// frameBuffered reports whether r already holds a whole frame, so that
// reading it cannot block.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < hdrLen {
		return false
	}
	hdr, _ := r.Peek(hdrLen)
	return uint64(r.Buffered()) >= hdrLen+uint64(binary.LittleEndian.Uint32(hdr[5:]))
}

// errStatement marks statement-level failures already reported to the
// client as MsgError; the connection survives them.
var errStatement = errors.New("protocol: statement error")

// dispatch serves one request frame.
func (s *Server) dispatch(sess *session.Session, w *frameWriter, typ byte, payload []byte) error {
	switch typ {
	case MsgQuery:
		res, err := sess.Exec(context.Background(), string(payload))
		if err != nil {
			return w.sendError(err)
		}
		if res == nil {
			return w.send(MsgOK, nil)
		}
		return w.sendResult(res)

	case MsgPrepare:
		name, rest, err := DecodeString(payload)
		if err != nil {
			return err
		}
		n, err := sess.Prepare(name, string(rest))
		if err != nil {
			return w.sendError(err)
		}
		var pl [2]byte
		pl[0] = byte(n)
		pl[1] = byte(n >> 8)
		return w.send(MsgOK, pl[:])

	case MsgExecute:
		name, args, err := decodeExecute(payload)
		if err != nil {
			return err
		}
		res, err := sess.Execute(context.Background(), name, args)
		if err != nil {
			return w.sendError(err)
		}
		return w.sendResult(res)

	case MsgDealloc:
		name, rest, err := DecodeString(payload)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("protocol: %d bytes after the DEALLOCATE name", len(rest))
		}
		if err := sess.Deallocate(name); err != nil {
			return w.sendError(err)
		}
		return w.send(MsgOK, nil)
	}
	return fmt.Errorf("protocol: unknown request type %d", typ)
}

// decodeExecute decodes a MsgExecute payload. The payload must be
// exactly name, count and that many values: bytes left over mean the
// sender's length fields and its data disagree (a u16 that wrapped), and
// running the statement on the part that happened to parse would answer
// a question the client did not ask.
func decodeExecute(payload []byte) (name string, args []types.Value, err error) {
	name, rest, err := DecodeString(payload)
	if err != nil {
		return "", nil, err
	}
	if len(rest) < 2 {
		return "", nil, fmt.Errorf("protocol: truncated EXECUTE")
	}
	nargs := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	// The count is off the socket and every value takes at least a byte:
	// a 13-byte frame does not get to ask for a 65 535-value slice.
	if nargs > len(rest) {
		return "", nil, fmt.Errorf("protocol: EXECUTE declares %d arguments in %d bytes", nargs, len(rest))
	}
	args = make([]types.Value, 0, nargs)
	for i := 0; i < nargs; i++ {
		var v types.Value
		if v, rest, err = DecodeValue(rest); err != nil {
			return "", nil, err
		}
		args = append(args, v)
	}
	if len(rest) != 0 {
		return "", nil, fmt.Errorf("protocol: %d bytes after the last EXECUTE argument", len(rest))
	}
	return name, args, nil
}

// flushBytes is the early-flush bound: once the frames of a reply in
// progress pass it they are written out, so a large result streams
// block by block (a full block alone passes it) instead of being
// assembled whole, and a connection's pending buffer stays below the
// bound plus one frame.
const flushBytes = 16 << 10

// frameWriter assembles the frames of a reply in one buffer, each
// payload serialized once straight into it, and hands the connection
// whole replies: flush writes what is pending in one Write.
type frameWriter struct {
	w       io.Writer
	pending []byte
	writes  *telemetry.Counter
}

func newFrameWriter(w io.Writer, writes *telemetry.Counter) *frameWriter {
	return &frameWriter{w: w, writes: writes}
}

// flush writes the pending frames, if any.
func (fw *frameWriter) flush() error {
	if len(fw.pending) == 0 {
		return nil
	}
	fw.writes.Inc()
	_, err := fw.w.Write(fw.pending)
	fw.pending = fw.pending[:0]
	return err
}

// begin opens a frame; the caller appends its payload to fw.pending and
// passes the returned offset to end.
func (fw *frameWriter) begin(typ byte) int {
	start := len(fw.pending)
	fw.pending = BeginFrame(fw.pending, typ)
	return start
}

// end closes the frame begun at start, and flushes early past the bound.
func (fw *frameWriter) end(start int) error {
	EndFrame(fw.pending[start:])
	if len(fw.pending) >= flushBytes {
		return fw.flush()
	}
	return nil
}

func (fw *frameWriter) send(typ byte, payload []byte) error {
	start := fw.begin(typ)
	fw.pending = append(fw.pending, payload...)
	return fw.end(start)
}

// sendError reports a statement failure and keeps the session alive.
func (fw *frameWriter) sendError(err error) error {
	if werr := fw.send(MsgError, []byte(err.Error())); werr != nil {
		return werr
	}
	return errStatement
}

// sendResult streams one result: schema, blocks, done.
func (fw *frameWriter) sendResult(res *engine.Result) error {
	start := fw.begin(MsgSchema)
	fw.pending = AppendSchema(fw.pending, res.Names, res.Schema)
	if err := fw.end(start); err != nil {
		return err
	}
	var rows uint64
	for _, b := range res.Blocks {
		rows += uint64(b.NumTuples())
		start = fw.begin(MsgBlock)
		fw.pending = b.EncodeAppend(fw.pending)
		if err := fw.end(start); err != nil {
			return err
		}
	}
	start = fw.begin(MsgDone)
	fw.pending = binary.LittleEndian.AppendUint64(fw.pending, rows)
	return fw.end(start)
}
