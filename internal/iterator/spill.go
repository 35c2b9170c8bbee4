package iterator

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/block"
	"repro/internal/types"
)

// spillFile is one operator partition serialized to disk: a temp file
// of length-prefixed frames in the existing block wire encoding, so
// spilled data round-trips through exactly the code path the network
// already exercises. Writes scatter rows into an arena-backed block and
// flush it as one frame when full; iterate flushes the remainder, then
// decodes the frames back and streams the rows.
//
// A spillFile is single-phase: all adds strictly precede iterate.
// Callers provide their own locking for concurrent adds.
type spillFile struct {
	f     *os.File
	path  string
	sch   *types.Schema
	stage *block.Block
	enc   []byte
	rec   []byte // addRow's gathered row
	// bytes and rows describe what was written (bytes only counts
	// flushed frames until iterate runs).
	bytes int64
	rows  int64
}

func newSpillFile(dir string, sch *types.Schema) (*spillFile, error) {
	f, err := os.CreateTemp(dir, "claims-spill-*")
	if err != nil {
		return nil, err
	}
	return &spillFile{
		f: f, path: f.Name(), sch: sch,
		stage: block.New(sch, block.DefaultSize, nil),
	}, nil
}

// addRow appends row i of b.
func (s *spillFile) addRow(b *block.Block, i int) error {
	s.rec = b.ReadRow(i, s.rec)
	return s.add(s.rec)
}

// add appends one record (the schema's row layout).
func (s *spillFile) add(rec []byte) error {
	if s.stage.Full() {
		if err := s.flush(); err != nil {
			return err
		}
	}
	s.stage.AppendRows(rec)
	s.rows++
	return nil
}

// flush writes the staged rows as one frame.
func (s *spillFile) flush() error {
	if s.stage.NumTuples() == 0 {
		return nil
	}
	s.enc = s.stage.Encode(s.enc[:0])
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(s.enc)))
	if _, err := s.f.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := s.f.Write(s.enc); err != nil {
		return err
	}
	s.bytes += int64(len(hdr) + len(s.enc))
	s.stage.Reset()
	return nil
}

// iterate flushes, rewinds, and calls fn for every spilled block
// of rows in write order. The block is recycled when fn returns.
func (s *spillFile) iterate(fn func(b *block.Block) error) error {
	if err := s.flush(); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	// The largest frame flush writes is one full staging block (the
	// stage is empty here, so its wire size is the bare header). A longer
	// length prefix is a corrupt file, not a reason to allocate it.
	maxFrame := s.stage.WireSize() + s.stage.Cap()*s.sch.Stride()
	var hdr [4]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(s.f, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n > maxFrame {
			return fmt.Errorf("iterator: spill file %s: frame of %d bytes, a flush writes at most %d", s.path, n, maxFrame)
		}
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(s.f, buf); err != nil {
			return err
		}
		b, err := block.Decode(s.sch, buf, nil)
		if err != nil {
			return err
		}
		err = fn(b)
		b.Recycle()
		if err != nil {
			return err
		}
	}
}

// drop closes and removes the file. Safe on nil and idempotent.
func (s *spillFile) drop() {
	if s == nil {
		return
	}
	if s.stage != nil {
		s.stage.Recycle()
		s.stage = nil
	}
	if s.f != nil {
		s.f.Close()
		os.Remove(s.path)
		s.f = nil
	}
}
