package protocol

import (
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
	s := &Server{ln: ln, backend: b, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
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

// serveConn runs one connection's request loop: a session is born with
// the connection and dies with it. Statement-level failures go back as
// MsgError and the session continues; protocol-level failures (bad
// magic, short reads, oversized frames) drop the connection — the
// stream can no longer be trusted.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	sess := session.New(s.backend)
	reg := telemetry.DefaultRegistry()
	w := newFrameWriter(conn)
	var buf []byte
	for {
		typ, payload, nbuf, err := ReadFrame(conn, buf)
		buf = nbuf
		if err != nil {
			return // EOF on clean disconnect, junk otherwise; either way drop
		}
		reg.Counter(telemetry.CtrProtoRequests).Inc()
		if err := s.dispatch(sess, w, typ, payload); err != nil {
			reg.Counter(telemetry.CtrProtoErrors).Inc()
			if !errors.Is(err, errStatement) {
				return // write failure or protocol violation
			}
		}
	}
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

// frameWriter serializes responses; scratch is reused across frames so
// the steady-state request loop stops allocating payload buffers.
type frameWriter struct {
	w       io.Writer
	scratch []byte
}

func newFrameWriter(w io.Writer) *frameWriter { return &frameWriter{w: w} }

func (fw *frameWriter) send(typ byte, payload []byte) error {
	return WriteFrame(fw.w, typ, payload)
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
	fw.scratch = AppendSchema(fw.scratch[:0], res.Names, res.Schema)
	if err := fw.send(MsgSchema, fw.scratch); err != nil {
		return err
	}
	var rows uint64
	for _, b := range res.Blocks {
		rows += uint64(b.NumTuples())
		fw.scratch = b.EncodeAppend(fw.scratch[:0])
		if err := fw.send(MsgBlock, fw.scratch); err != nil {
			return err
		}
	}
	fw.scratch = binary.LittleEndian.AppendUint64(fw.scratch[:0], rows)
	return fw.send(MsgDone, fw.scratch)
}
