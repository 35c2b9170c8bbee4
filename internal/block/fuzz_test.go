package block

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

// FuzzBlockDecode feeds arbitrary bytes to Decode — what the TCP fabric,
// the EPQ1 client and the spill reader hand it straight off a socket or
// a file. It must not panic, and a frame it accepts must re-encode to
// exactly the bytes it came from (through both encoders) and account
// exactly its buffer: a frame that decodes but does not round-trip is
// one whose tail or header the receiver silently ignored.
func FuzzBlockDecode(f *testing.F) {
	sch := testSchema()
	b := New(sch, 4*sch.Stride(), nil)
	f.Add(b.Encode(nil)) // zero tuples
	r := make([]byte, sch.Stride())
	fill := func(b *Block, i int) {
		types.PutValue(r, sch, 0, types.IntVal(int64(i*7)))
		types.PutValue(r, sch, 1, types.FloatVal(float64(i)/3))
		types.PutValue(r, sch, 2, types.StrVal("abcdefgh"[:i%9]))
		b.AppendRows(r)
	}
	for i := 0; i < 3; i++ {
		fill(b, i)
	}
	f.Add(b.Encode(nil)) // partly filled: 3 of 4 tuples, columns compacted
	for i := 3; !b.Full(); i++ {
		fill(b, i)
	}
	b.VisitRate, b.Seq = 0.125, 99
	enc := b.Encode(nil)
	f.Add(enc)
	grown := New(sch, sch.Stride(), nil)
	for i := 0; i < 7; i++ {
		grown.EnsureRoom(1)
		fill(grown, i)
	}
	// Grown by EnsureRoom to 8 tuples, holding 7.
	f.Add(grown.Encode(nil))
	f.Add(enc[:len(enc)-1])                        // truncated payload
	f.Add(append(bytes.Clone(enc), 0))             // one byte too many
	f.Add(enc[:headerLen-1])                       // short header
	f.Add(bytes.Repeat([]byte{0xff}, 2*headerLen)) // tuple count far beyond the payload

	f.Fuzz(func(t *testing.T, src []byte) {
		tr := NewTracker()
		got, err := Decode(sch, src, tr)
		if err != nil {
			if cur := tr.Current(); cur != 0 {
				t.Fatalf("rejected frame left %d bytes tracked", cur)
			}
			return
		}
		if again := got.Encode(nil); !bytes.Equal(again, src) {
			t.Fatalf("accepted a %d-byte frame of %d tuples that re-encodes to %d bytes:\n%x\nvs\n%x",
				len(src), got.NumTuples(), len(again), src, again)
		}
		if again := got.EncodeAppend(nil); !bytes.Equal(again, src) {
			t.Fatalf("EncodeAppend disagrees with Encode on an accepted frame:\n%x\nvs\n%x", src, again)
		}
		got.Recycle()
		if cur := tr.Current(); cur != 0 {
			t.Fatalf("recycled block left %d bytes tracked", cur)
		}
	})
}
