package network

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

func TestFrameHeaderRoundTrip(t *testing.T) {
	cases := []frameHeader{
		{query: 0, exchange: 0, inst: 0, kind: frameData, src: 0, seq: 0, sum: 0, length: 0},
		{query: 7, exchange: 3, inst: 2, kind: frameEOF, src: 5, seq: 1<<40 | 9, sum: 0xDEADBEEF, length: 4096},
		{query: math.MaxInt32, exchange: 1, inst: 1, kind: frameAck, src: -1, seq: math.MaxUint64, sum: 1, length: maxFrameBytes},
	}
	for i, h := range cases {
		var b [frameHdrLen]byte
		putFrameHeader(b[:], h)
		got, err := parseFrameHeader(b[:])
		if err != nil || got != h {
			t.Errorf("case %d: round trip mismatch: put %+v got %+v (%v)", i, h, got, err)
		}
	}
}

// TestFrameHeaderRejectsGarbage: a short header, a foreign magic (the
// v2 batch magic included) and a length over the bound are errors.
func TestFrameHeaderRejectsGarbage(t *testing.T) {
	mk := func(magic uint32, length int) []byte {
		var b [frameHdrLen]byte
		putFrameHeader(b[:], frameHeader{kind: frameData, seq: 1, length: length})
		binary.LittleEndian.PutUint32(b[0:], magic)
		return b[:]
	}
	bad := [][]byte{
		{},
		{0x33, 0x46, 0x50, 0x45},          // bare magic
		mk(frameMagic, 4)[:frameHdrLen-1], // short header
		mk(0x12345678, 4),                 // wrong magic
		mk(0x45504232, 4),                 // the v2 batch magic, "EPB2"
		mk(frameMagic, maxFrameBytes+1),   // oversized payload
		mk(frameMagic, math.MaxUint32),    // a flipped top bit
	}
	for i, b := range bad {
		if _, err := parseFrameHeader(b); err == nil {
			t.Errorf("case %d: parseFrameHeader accepted malformed header %v", i, b)
		}
	}
}

// TestFrameRoundTrip: what the sender writes — a block encoded by
// newFrameBuf with the header stamped in front of it — is one frame that
// readFrame returns whole; an eof is the header alone. Every truncation
// of it is an error.
func TestFrameRoundTrip(t *testing.T) {
	for _, b := range []*block.Block{mkBlock(1, 2, 3), nil} {
		buf := newFrameBuf(b)
		h := frameHeader{query: 3, exchange: 4, inst: 1, kind: frameEOF, src: 2, seq: 1<<32 + 7}
		if b != nil {
			h.kind = frameData
		}
		h.sum = crc32.Checksum(buf[frameHdrLen:], crcTable)
		stampFrame(buf, h)
		var hdr [frameHdrLen]byte
		got, payload, err := readFrame(bytes.NewReader(buf), &hdr)
		if err != nil {
			t.Fatalf("readFrame of a %d-byte frame: %v", len(buf), err)
		}
		h.length = len(buf) - frameHdrLen
		if got != h || len(payload) != h.length {
			t.Fatalf("frame header %+v with %d payload bytes, want %+v", got, len(payload), h)
		}
		if b == nil {
			if len(payload) != 0 {
				t.Errorf("eof frame carries %d payload bytes", len(payload))
			}
		} else {
			dec, err := block.Decode(sch, payload, nil)
			if err != nil {
				t.Fatal(err)
			}
			if dec.NumTuples() != 3 || dec.Get(2, 0).I != 3 {
				t.Errorf("decoded %d tuples, want 1, 2, 3", dec.NumTuples())
			}
		}
		block.PutBuf(payload)
		for cut := range len(buf) {
			if _, _, err := readFrame(bytes.NewReader(buf[:cut]), &hdr); err == nil {
				t.Errorf("readFrame accepted the first %d of %d bytes", cut, len(buf))
			}
		}
		block.PutBuf(buf)
	}
}

// TestBlockEncodeAppendMatchesEncode pins the zero-copy frame encoder
// to the canonical block codec: newFrameBuf serializes blocks with
// EncodeAppend straight into the frame buffer, and the receiver decodes
// them with the ordinary Decode.
func TestBlockEncodeAppendMatchesEncode(t *testing.T) {
	schema := types.NewSchema(types.Col("a", types.Int64), types.Col("b", types.Int64))
	b := block.New(schema, 64*schema.Stride(), nil)
	for i := 0; i < 64; i++ {
		r := make([]byte, b.Schema().Stride())
		types.PutValue(r, schema, 0, types.IntVal(int64(i)))
		types.PutValue(r, schema, 1, types.IntVal(int64(i*i)))
		b.AppendRows(r)
	}
	canonical := b.Encode(nil)
	appended := b.EncodeAppend([]byte("prefix--"))
	if !bytes.Equal(appended[:8], []byte("prefix--")) {
		t.Fatal("EncodeAppend clobbered existing bytes")
	}
	if !bytes.Equal(appended[8:], canonical) {
		t.Fatalf("EncodeAppend differs from Encode (%d vs %d bytes)",
			len(appended)-8, len(canonical))
	}

	dec, err := block.Decode(schema, canonical, nil)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.NumTuples() != 64 {
		t.Fatalf("decoded %d tuples, want 64", dec.NumTuples())
	}
}

// FuzzWireDecodeFrame drives readFrame, the read loop's decoder, over
// arbitrary bytes until it errs. It must never panic, every frame it
// yields has a header that parses and a payload of exactly the length
// the header claims, and it consumes no more bytes than it was given.
func FuzzWireDecodeFrame(f *testing.F) {
	data := rawFrame(frameHeader{query: 1, exchange: 2, kind: frameData, src: 1, seq: 1}, []byte("payload"))
	eof := rawFrame(frameHeader{query: 1, exchange: 2, kind: frameEOF, src: 1, seq: 2}, nil)
	two := append(append([]byte(nil), data...), eof...)
	f.Add(two)
	f.Add(two[:len(two)-3])
	long := append([]byte(nil), two...)
	long[5] ^= 0x40 // the first frame's length: now past the stream's end
	f.Add(long)
	f.Add([]byte{})
	f.Add([]byte{0x33, 0x46, 0x50, 0x45}) // bare magic

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var hdr [frameHdrLen]byte
		consumed := 0
		for {
			h, payload, err := readFrame(r, &hdr)
			if err != nil {
				if errors.Is(err, io.EOF) && r.Len() != 0 {
					t.Fatalf("clean EOF with %d bytes unread", r.Len())
				}
				return
			}
			if len(payload) != h.length {
				t.Fatalf("frame header claims %d payload bytes, readFrame yielded %d", h.length, len(payload))
			}
			if again, err := parseFrameHeader(hdr[:]); err != nil || again != h {
				t.Fatalf("yielded header %+v does not reparse: %+v, %v", h, again, err)
			}
			_ = crc32.Checksum(payload, crcTable)
			consumed += frameHdrLen + len(payload)
			if consumed+r.Len() != len(data) {
				t.Fatalf("consumed %d + unread %d != %d bytes given", consumed, r.Len(), len(data))
			}
			block.PutBuf(payload)
		}
	})
}
