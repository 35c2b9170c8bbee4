package iterator

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// FuzzSpillFrames hands arbitrary bytes to spillFile.iterate as
// the contents of a spill file, which is what a spilled join or
// aggregation shard reads back from disk. The frames flush writes come
// back as the same frames; anything else is an error, never a panic,
// and never an allocation beyond what one frame may hold.
func FuzzSpillFrames(f *testing.F) {
	sch := types.NewSchema(types.Col("k", types.Int64), types.Char("s", 5))
	dir := f.TempDir()
	// written is a file flush wrote: one frame per batch of rows.
	written := func(batches ...int) []byte {
		s, err := newSpillFile(dir, sch)
		if err != nil {
			f.Fatal(err)
		}
		defer s.drop()
		rec := make([]byte, sch.Stride())
		rows := 0
		for _, n := range batches {
			for i := 0; i < n; i++ {
				types.PutValue(rec, sch, 0, types.IntVal(int64(rows*7)))
				types.PutValue(rec, sch, 1, types.StrVal("ab"[:rows%3]))
				if err := s.add(rec); err != nil {
					f.Fatal(err)
				}
				rows++
			}
			if err := s.flush(); err != nil {
				f.Fatal(err)
			}
		}
		got := 0
		if err := s.iterate(func(b *block.Block) error { got += b.NumTuples(); return nil }); err != nil || got != rows {
			f.Fatalf("a file flush wrote read back %d of %d rows: %v", got, rows, err)
		}
		data := make([]byte, s.bytes)
		if _, err := s.f.ReadAt(data, 0); err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add([]byte{})
	one, two := written(3), written(2, 5)
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-1])                           // truncated payload
	f.Add(append(bytes.Clone(one), 0, 0))             // a partial length prefix
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // a length far beyond a frame
	f.Add([]byte{0, 0, 0, 0})                         // an empty frame

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := newSpillFile(dir, sch)
		if err != nil {
			t.Fatal(err)
		}
		defer s.drop()
		if _, err := s.f.Write(data); err != nil {
			t.Fatal(err)
		}
		maxFrame := s.stage.WireSize() + s.stage.Cap()*sch.Stride()
		var again []byte
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = s.iterate(func(b *block.Block) error {
			enc := b.Encode(nil)
			again = binary.LittleEndian.AppendUint32(again, uint32(len(enc)))
			again = append(again, enc...)
			return nil
		})
		runtime.ReadMemStats(&after)
		if err == nil && !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes that re-encode to %d:\n%x\nvs\n%x", len(data), len(again), data, again)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*(maxFrame+len(data)))+1<<20 {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
	})
}
