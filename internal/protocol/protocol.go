// Package protocol is the streaming client wire protocol of the
// high-QPS serving path: length-prefixed request/response frames over
// TCP, one session per connection, results streamed block-by-block in
// the engine's native block encoding.
//
// The framing follows the idioms of the internal exchange fabric
// (internal/network/wire.go): a fixed magic guarding against
// desynchronized or foreign streams, little-endian fixed headers,
// decode-side sanity bounds so a flipped length field cannot allocate
// gigabytes, and payloads serialized once straight into the write
// buffer. It is deliberately simpler than the fabric — one
// request/response stream per connection, no retransmission — because
// TCP already provides ordering and the unit of loss is the whole
// session. What it shares with the fabric's batching is the rule that a
// message leaves in one write: a reply's frames are assembled in one
// buffer and handed to the connection together (server.go, frameWriter).
//
//	frame := uint32 magic ("EPQ1") | uint8 type | uint32 payloadLen | payload
//
// Client → server. Requests are answered in the order they arrive; a
// client that writes several before reading gets as many replies, in
// that order:
//
//	MsgQuery     payload = SQL text
//	MsgPrepare   payload = u16 nameLen | name | SQL text
//	MsgExecute   payload = u16 nameLen | name | u16 nargs | nargs × value
//	MsgDealloc   payload = u16 nameLen | name
//
// Server → client, per request: either one MsgError, or MsgOK (no
// result set: PREPARE/DEALLOCATE), or a result stream MsgSchema,
// MsgBlock×N, MsgDone.
//
//	MsgOK        payload = u16 numParams (PREPARE) or empty
//	MsgError     payload = error text
//	MsgSchema    payload = u16 ncols | ncols × (u16 nameLen | name | u8 kind | u16 width)
//	MsgBlock     payload = one block in block.EncodeAppend format
//	MsgDone      payload = u64 total row count
//
// Values (EXECUTE arguments) encode as u8 kind tag (0 NULL, 1 int64,
// 2 float64, 3 string, 4 date) followed by the representation: 8-byte
// little-endian for int/float/date, u16 length + bytes for strings.
package protocol

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/types"
)

// Message types.
const (
	MsgQuery   = 1
	MsgPrepare = 2
	MsgExecute = 3
	MsgDealloc = 4

	MsgOK     = 10
	MsgError  = 11
	MsgSchema = 12
	MsgBlock  = 13
	MsgDone   = 14
)

// Magic guards the stream; a reader seeing anything else drops the
// connection rather than misparse.
const Magic = 0x45505131 // "EPQ1"

// hdrLen is the fixed frame header: magic(4) type(1) payloadLen(4).
const hdrLen = 4 + 1 + 4

// MaxFrameBytes bounds a frame a reader will accept (decode-side
// sanity, like the exchange fabric's maxFrameBytes).
const MaxFrameBytes = 16 << 20

// BeginFrame appends a frame header whose payload length is still open.
// The caller appends the payload after it and closes the frame with
// EndFrame, so a payload is serialized once, straight into the buffer
// the connection is handed:
//
//	start := len(buf)
//	buf = BeginFrame(buf, MsgBlock)
//	buf = b.EncodeAppend(buf)
//	EndFrame(buf[start:])
func BeginFrame(dst []byte, typ byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	return append(dst, typ, 0, 0, 0, 0)
}

// EndFrame closes the frame that starts at frame[0] and runs to the end
// of the slice: everything after the header is its payload.
func EndFrame(frame []byte) {
	binary.LittleEndian.PutUint32(frame[5:], uint32(len(frame)-hdrLen))
}

// WriteFrame writes one frame as two writes, header then payload. The
// server and the client do not use it on a socket, where each write is
// a system call and a segment of its own: they assemble whole messages
// with BeginFrame/EndFrame and hand the connection one buffer.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [hdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	hdr[4] = typ
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame, reusing buf when it is large enough. It
// returns the frame type and payload (aliasing buf's storage). The
// header is read into buf as well and overwritten by the payload, so a
// caller that keeps its buffer pays no allocation per frame.
func ReadFrame(r io.Reader, buf []byte) (typ byte, payload, newBuf []byte, err error) {
	if cap(buf) < hdrLen {
		buf = make([]byte, hdrLen)
	}
	hdr := buf[:hdrLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, buf, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != Magic {
		return 0, nil, buf, fmt.Errorf("protocol: bad magic %#x", m)
	}
	typ = hdr[4]
	n := int(binary.LittleEndian.Uint32(hdr[5:]))
	if n > MaxFrameBytes {
		return 0, nil, buf, fmt.Errorf("protocol: frame of %d bytes exceeds limit", n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	payload = buf[:n]
	if n > 0 {
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, buf, err
		}
	}
	return typ, payload, buf, nil
}

// Value kind tags.
const (
	valNull   = 0
	valInt    = 1
	valFloat  = 2
	valString = 3
	valDate   = 4
)

// AppendValue appends one encoded value.
func AppendValue(dst []byte, v types.Value) []byte {
	if v.Null {
		return append(dst, valNull)
	}
	switch v.Kind {
	case types.Int64:
		dst = append(dst, valInt)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	case types.Float64:
		dst = append(dst, valFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
	case types.Date:
		dst = append(dst, valDate)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	default: // String
		dst = append(dst, valString)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.S)))
		return append(dst, v.S...)
	}
}

// DecodeValue decodes one value, returning the remaining bytes.
func DecodeValue(src []byte) (types.Value, []byte, error) {
	if len(src) < 1 {
		return types.Value{}, nil, fmt.Errorf("protocol: truncated value")
	}
	tag := src[0]
	src = src[1:]
	switch tag {
	case valNull:
		return types.Value{Null: true}, src, nil
	case valInt, valDate:
		if len(src) < 8 {
			return types.Value{}, nil, fmt.Errorf("protocol: truncated value")
		}
		i := int64(binary.LittleEndian.Uint64(src))
		v := types.IntVal(i)
		if tag == valDate {
			v = types.DateVal(i)
		}
		return v, src[8:], nil
	case valFloat:
		if len(src) < 8 {
			return types.Value{}, nil, fmt.Errorf("protocol: truncated value")
		}
		return types.FloatVal(math.Float64frombits(binary.LittleEndian.Uint64(src))), src[8:], nil
	case valString:
		if len(src) < 2 {
			return types.Value{}, nil, fmt.Errorf("protocol: truncated value")
		}
		n := int(binary.LittleEndian.Uint16(src))
		src = src[2:]
		if len(src) < n {
			return types.Value{}, nil, fmt.Errorf("protocol: truncated value")
		}
		return types.StrVal(string(src[:n])), src[n:], nil
	}
	return types.Value{}, nil, fmt.Errorf("protocol: unknown value tag %d", tag)
}

// AppendString appends a u16-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// DecodeString decodes a u16-length-prefixed string.
func DecodeString(src []byte) (string, []byte, error) {
	if len(src) < 2 {
		return "", nil, fmt.Errorf("protocol: truncated string")
	}
	n := int(binary.LittleEndian.Uint16(src))
	src = src[2:]
	if len(src) < n {
		return "", nil, fmt.Errorf("protocol: truncated string")
	}
	return string(src[:n]), src[n:], nil
}

// AppendSchema appends the schema description of a result stream.
func AppendSchema(dst []byte, names []string, sch *types.Schema) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(sch.Cols)))
	for i, c := range sch.Cols {
		name := c.Name
		if i < len(names) && names[i] != "" {
			name = names[i]
		}
		dst = AppendString(dst, name)
		dst = append(dst, byte(c.Kind))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(c.Width))
	}
	return dst
}

// DecodeSchema decodes a MsgSchema payload into a schema whose column
// names are the result's display names. The payload comes off a socket,
// so what types.NewSchema would panic on, what no row can be read under
// (an undefined kind) and what bounds nothing (no columns: any tuple
// count fits an empty block payload) are errors here.
func DecodeSchema(src []byte) (*types.Schema, error) {
	if len(src) < 2 {
		return nil, fmt.Errorf("protocol: truncated schema")
	}
	n := int(binary.LittleEndian.Uint16(src))
	if n == 0 {
		return nil, fmt.Errorf("protocol: schema without columns")
	}
	src = src[2:]
	cols := make([]types.Column, n)
	for i := 0; i < n; i++ {
		name, rest, err := DecodeString(src)
		if err != nil {
			return nil, err
		}
		src = rest
		if len(src) < 3 {
			return nil, fmt.Errorf("protocol: truncated schema")
		}
		kind := types.Kind(src[0])
		width := int(binary.LittleEndian.Uint16(src[1:]))
		src = src[3:]
		if kind > types.Date || (kind == types.String && width == 0) {
			return nil, fmt.Errorf("protocol: column %q has kind %d, width %d", name, kind, width)
		}
		cols[i] = types.Column{Name: name, Kind: kind, Width: width}
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("protocol: %d bytes after the last schema column", len(src))
	}
	return types.NewSchema(cols...), nil
}
