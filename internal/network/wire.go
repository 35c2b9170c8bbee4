package network

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/block"
)

// Wire protocol v2: frames travel in batches, one batch per write. A
// batch is
//
//	uint32 magic ("EPB2") | uint32 payloadLen | uint32 nFrames |
//	nFrames × frame
//
// and each frame keeps the v1 layout so the per-frame seq/CRC semantics
// (dedupe watermarks, fault verdicts, retransmit units) are unchanged:
//
//	uint32 frameLen | uint32 queryID | uint32 exchangeID |
//	uint32 destInstance | uint8 kind (0=data, 1=eof, 2=ack) |
//	uint32 srcNode | uint64 seq | uint32 checksum |
//	payload (encoded block; empty for eof; for an ack, the uint64
//	credit: the highest seq the sender may send)
//
// The reader pulls one batch header, reads the whole payload into a
// pooled arena buffer with a single ReadFull, then walks the frames in
// place, so it takes any number of frames per batch. The sender writes
// one frame per batch: iterator.Sender already packs tuples into full
// blocks, so there is nothing left to coalesce. newFrameBuf encodes the
// block once, behind room for both headers, straight into the bytes the
// write sends.

const (
	frameData = 0
	frameEOF  = 1
	frameAck  = 2
)

// frameHdrLen is the fixed frame header: frameLen(4) query(4)
// exchange(4) inst(4) kind(1) srcNode(4) seq(8) checksum(4).
const frameHdrLen = 4 + 4 + 4 + 4 + 1 + 4 + 8 + 4

// batchHdrLen is the fixed batch header: magic(4) payloadLen(4)
// nFrames(4).
const batchHdrLen = 4 + 4 + 4

// oneFrameHdrLen is what precedes the payload in a one-frame batch.
const oneFrameHdrLen = batchHdrLen + frameHdrLen

// ackPayloadLen is an ack's payload: its credit.
const ackPayloadLen = 8

// batchMagic guards against desynchronized or foreign streams: a reader
// that sees anything else drops the connection rather than misparse.
const batchMagic = 0x45504232 // "EPB2"

// Decode-side sanity bounds. A header that exceeds them is treated as
// corruption (the connection is dropped); they exist so a flipped
// length field cannot make the reader allocate gigabytes.
const (
	maxBatchBytes  = 64 << 20
	maxBatchFrames = 1 << 20
)

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

// putFrameHeader writes h into b, which must have frameHdrLen bytes.
func putFrameHeader(b []byte, h frameHeader) {
	binary.LittleEndian.PutUint32(b[0:], uint32(h.length))
	binary.LittleEndian.PutUint32(b[4:], uint32(h.query))
	binary.LittleEndian.PutUint32(b[8:], uint32(h.exchange))
	binary.LittleEndian.PutUint32(b[12:], uint32(h.inst))
	b[16] = h.kind
	binary.LittleEndian.PutUint32(b[17:], uint32(h.src))
	binary.LittleEndian.PutUint64(b[21:], h.seq)
	binary.LittleEndian.PutUint32(b[29:], h.sum)
}

// parseFrameHeader decodes the frame header at the start of b, which
// must have at least frameHdrLen bytes.
func parseFrameHeader(b []byte) frameHeader {
	return frameHeader{
		length:   int(binary.LittleEndian.Uint32(b[0:])),
		query:    int(binary.LittleEndian.Uint32(b[4:])),
		exchange: int(binary.LittleEndian.Uint32(b[8:])),
		inst:     int(binary.LittleEndian.Uint32(b[12:])),
		kind:     b[16],
		src:      int(int32(binary.LittleEndian.Uint32(b[17:]))),
		seq:      binary.LittleEndian.Uint64(b[21:]),
		sum:      binary.LittleEndian.Uint32(b[29:]),
	}
}

// putBatchHeader stamps the batch header into b (batchHdrLen bytes):
// payloadLen is the byte length of the frames that follow the header.
func putBatchHeader(b []byte, payloadLen, nFrames int) {
	binary.LittleEndian.PutUint32(b[0:], batchMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(payloadLen))
	binary.LittleEndian.PutUint32(b[8:], uint32(nFrames))
}

// parseBatchHeader decodes and validates a batch header, returning the
// payload length and frame count.
func parseBatchHeader(b []byte) (payloadLen, nFrames int, err error) {
	if len(b) < batchHdrLen {
		return 0, 0, fmt.Errorf("network: short batch header (%d bytes)", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != batchMagic {
		return 0, 0, fmt.Errorf("network: bad batch magic %#x", m)
	}
	payloadLen = int(binary.LittleEndian.Uint32(b[4:]))
	nFrames = int(binary.LittleEndian.Uint32(b[8:]))
	if payloadLen < 0 || payloadLen > maxBatchBytes {
		return 0, 0, fmt.Errorf("network: batch payload %d out of bounds", payloadLen)
	}
	if nFrames < 1 || nFrames > maxBatchFrames {
		return 0, 0, fmt.Errorf("network: batch frame count %d out of bounds", nFrames)
	}
	if payloadLen < nFrames*frameHdrLen {
		return 0, 0, fmt.Errorf("network: batch payload %d too small for %d frames",
			payloadLen, nFrames)
	}
	return payloadLen, nFrames, nil
}

// newFrameBuf returns a pooled one-frame batch buffer: room for both
// headers, then b encoded (nothing for a nil b, an eof). stampFrame
// fills the headers in.
func newFrameBuf(b *block.Block) []byte {
	if b == nil {
		return block.GetBuf(oneFrameHdrLen)
	}
	buf := block.GetBuf(oneFrameHdrLen + b.WireSize())[:oneFrameHdrLen]
	return b.EncodeAppend(buf)
}

// stampFrame writes the batch and frame headers of a one-frame batch
// around the payload already in buf; h.length is taken from buf.
func stampFrame(buf []byte, h frameHeader) {
	h.length = len(buf) - oneFrameHdrLen
	putBatchHeader(buf, frameHdrLen+h.length, 1)
	putFrameHeader(buf[batchHdrLen:], h)
}

// walkBatch iterates the frames of a batch payload, calling fn with
// each header and its payload sub-slice (valid only during the call).
// It validates every frame boundary; a malformed batch returns an error
// without calling fn past the damage.
func walkBatch(payload []byte, nFrames int, fn func(h frameHeader, payload []byte) error) error {
	off := 0
	for i := 0; i < nFrames; i++ {
		if len(payload)-off < frameHdrLen {
			return fmt.Errorf("network: batch truncated at frame %d/%d", i, nFrames)
		}
		h := parseFrameHeader(payload[off:])
		off += frameHdrLen
		if h.length < 0 || h.length > len(payload)-off {
			return fmt.Errorf("network: frame %d/%d claims %d payload bytes, %d remain",
				i, nFrames, h.length, len(payload)-off)
		}
		if err := fn(h, payload[off:off+h.length]); err != nil {
			return err
		}
		off += h.length
	}
	if off != len(payload) {
		return fmt.Errorf("network: batch has %d trailing bytes after %d frames",
			len(payload)-off, nFrames)
	}
	return nil
}
