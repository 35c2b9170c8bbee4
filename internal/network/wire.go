package network

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/block"
)

// Wire protocol v3: one frame per write, one header per frame.
//
//	uint32 magic ("EPF3") | uint32 frameLen | uint32 queryID |
//	uint32 exchangeID | uint32 destInstance |
//	uint8 kind (0=data, 1=eof, 2=ack) | uint32 srcNode | uint64 seq |
//	uint32 checksum |
//	payload (encoded block; empty for eof; for an ack, the uint64
//	credit: the highest seq the sender may send)
//
// frameLen is the payload's length. The reader pulls one header, checks
// the magic and the length bound, then reads the payload with a single
// ReadFull into a pooled arena buffer (readFrame). The sender needs no
// more than one frame per write: iterator.Sender already packs tuples
// into full blocks, so there is nothing left to coalesce. newFrameBuf
// encodes the block once, behind room for the header, straight into
// the bytes the write sends.

const (
	frameData = 0
	frameEOF  = 1
	frameAck  = 2
)

// frameHdrLen is the fixed frame header: magic(4) frameLen(4) query(4)
// exchange(4) inst(4) kind(1) srcNode(4) seq(8) checksum(4).
const frameHdrLen = 4 + 4 + 4 + 4 + 4 + 1 + 4 + 8 + 4

// ackPayloadLen is an ack's payload: its credit.
const ackPayloadLen = 8

// frameMagic guards against desynchronized or foreign streams: a reader
// that sees anything else drops the connection rather than misparse. It
// differs from the v2 batch magic ("EPB2"), so a peer speaking the older
// protocol is dropped too.
const frameMagic = 0x45504633 // "EPF3"

// maxFrameBytes bounds the payload length a reader accepts. A header
// over it is treated as corruption (the connection is dropped), so a
// flipped length field cannot make the reader allocate gigabytes.
const maxFrameBytes = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is one decoded frame header.
type frameHeader struct {
	query    int
	exchange int
	inst     int
	kind     byte
	src      int
	seq      uint64
	sum      uint32
	length   int // payload length
}

// putFrameHeader writes h, magic first, into b, which must have
// frameHdrLen bytes.
func putFrameHeader(b []byte, h frameHeader) {
	binary.LittleEndian.PutUint32(b[0:], frameMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(h.length))
	binary.LittleEndian.PutUint32(b[8:], uint32(h.query))
	binary.LittleEndian.PutUint32(b[12:], uint32(h.exchange))
	binary.LittleEndian.PutUint32(b[16:], uint32(h.inst))
	b[20] = h.kind
	binary.LittleEndian.PutUint32(b[21:], uint32(h.src))
	binary.LittleEndian.PutUint64(b[25:], h.seq)
	binary.LittleEndian.PutUint32(b[33:], h.sum)
}

// parseFrameHeader decodes and validates the frame header at the start
// of b: it must be whole, carry the magic and claim no more than
// maxFrameBytes of payload.
func parseFrameHeader(b []byte) (frameHeader, error) {
	if len(b) < frameHdrLen {
		return frameHeader{}, fmt.Errorf("network: short frame header (%d bytes)", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != frameMagic {
		return frameHeader{}, fmt.Errorf("network: bad frame magic %#x", m)
	}
	h := frameHeader{
		length:   int(binary.LittleEndian.Uint32(b[4:])),
		query:    int(binary.LittleEndian.Uint32(b[8:])),
		exchange: int(binary.LittleEndian.Uint32(b[12:])),
		inst:     int(binary.LittleEndian.Uint32(b[16:])),
		kind:     b[20],
		src:      int(int32(binary.LittleEndian.Uint32(b[21:]))),
		seq:      binary.LittleEndian.Uint64(b[25:]),
		sum:      binary.LittleEndian.Uint32(b[33:]),
	}
	if h.length > maxFrameBytes {
		return frameHeader{}, fmt.Errorf("network: frame payload %d out of bounds", h.length)
	}
	return h, nil
}

// readFrame reads one frame from r: the header into hdr, then its
// payload into a pooled buffer the caller hands back with block.PutBuf.
// Any error leaves the stream unusable.
func readFrame(r io.Reader, hdr *[frameHdrLen]byte) (frameHeader, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frameHeader{}, nil, err
	}
	h, err := parseFrameHeader(hdr[:])
	if err != nil {
		return h, nil, err
	}
	payload := block.GetBuf(h.length)
	if _, err := io.ReadFull(r, payload); err != nil {
		block.PutBuf(payload)
		return h, nil, err
	}
	return h, payload, nil
}

// newFrameBuf returns a pooled frame buffer: room for the header, then
// b encoded (nothing for a nil b, an eof). stampFrame fills the header
// in.
func newFrameBuf(b *block.Block) []byte {
	if b == nil {
		return block.GetBuf(frameHdrLen)
	}
	buf := block.GetBuf(frameHdrLen + b.WireSize())[:frameHdrLen]
	return b.EncodeAppend(buf)
}

// stampFrame writes the header of the frame whose payload is already in
// buf; h.length is taken from buf.
func stampFrame(buf []byte, h frameHeader) {
	h.length = len(buf) - frameHdrLen
	putFrameHeader(buf, h)
}
