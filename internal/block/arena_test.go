package block

import (
	"testing"

	"repro/internal/types"
)

func TestArenaGetPutClasses(t *testing.T) {
	// Tiny requests bypass the pool: exact size, no class rounding.
	tiny := GetBuf(100)
	if len(tiny) != 100 || cap(tiny) >= 4<<10 {
		t.Fatalf("tiny len=%d cap=%d, want exact-size unpooled", len(tiny), cap(tiny))
	}
	PutBuf(tiny) // silently dropped (capacity is no class size)

	b := GetBuf(2000)
	if len(b) != 2000 || cap(b) != 4<<10 {
		t.Fatalf("len=%d cap=%d, want 2000/%d", len(b), cap(b), 4<<10)
	}
	for i := range b {
		b[i] = 0xAA
	}
	PutBuf(b)
	// PutBuf leaves the bytes alone, except that race builds poison the
	// whole class slot so that a stale view or an unwritten row shows.
	want := byte(0xAA)
	if poisonArena {
		want, b = 0xA5, b[:cap(b)]
	}
	for i, x := range b {
		if x != want {
			t.Fatalf("byte %d of a pooled buffer is %#x, want %#x (poisonArena=%v)", i, x, want, poisonArena)
		}
	}
	// Oversize buffers bypass the pool.
	big := GetBuf(2 << 20)
	if len(big) != 2<<20 {
		t.Fatalf("oversize len=%d", len(big))
	}
	PutBuf(big) // must not panic, silently dropped
	if GetBuf(0) != nil {
		t.Fatal("GetBuf(0) should be nil")
	}
}

func TestBlockRecycle(t *testing.T) {
	sch := types.NewSchema(types.Col("a", types.Int64))
	tr := NewTracker()
	b := New(sch, DefaultSize, tr)
	b.AppendRows(make([]byte, sch.Stride()))
	b.Recycle()
	if tr.Current() != 0 {
		t.Fatalf("recycle left %d tracked bytes", tr.Current())
	}
	if b.SizeBytes() != 0 || b.NumTuples() != 0 {
		t.Fatal("recycled block retains buffer")
	}
}

// TestRecycleTwiceIsHarmless: the second Recycle of a block finds no
// buffer and no tracker, so it neither pools the buffer a second time —
// two later owners would share it — nor frees bytes twice.
func TestRecycleTwiceIsHarmless(t *testing.T) {
	sch := types.NewSchema(types.Col("a", types.Int64))
	tr := NewTracker()
	tr.Alloc(1) // a second Free would take the tracker below this
	b := New(sch, DefaultSize, tr)
	b.Recycle()
	b.Recycle()
	if cur := tr.Current(); cur != 1 {
		t.Fatalf("tracker at %d after two Recycles, want 1", cur)
	}
	// One buffer went to the pool: two draws of its class must not alias.
	x, y := GetBuf(DefaultSize), GetBuf(DefaultSize)
	if &x[0] == &y[0] {
		t.Fatal("a twice-recycled buffer was handed out twice")
	}
}

// TestSharedBlockSurvivesRecycle: for a shared block, and for a copy of
// its Block value (what a scan hands out), Recycle is Release only.
func TestSharedBlockSurvivesRecycle(t *testing.T) {
	sch := types.NewSchema(types.Col("a", types.Int64))
	b := New(sch, DefaultSize, nil)
	rec := make([]byte, sch.Stride())
	for !b.Full() {
		types.PutInt(rec, 0, int64(b.NumTuples()+1))
		b.AppendRows(rec)
	}
	b.MarkShared()
	stamp := *b
	stamp.Recycle()
	b.Recycle()
	// Whatever the arena hands out next must not be this payload.
	other := GetBuf(DefaultSize)
	for i := range other {
		other[i] = 0xEE
	}
	if b.NumTuples() != b.Cap() {
		t.Fatalf("shared block lost its rows: %d of %d", b.NumTuples(), b.Cap())
	}
	for i := 0; i < b.NumTuples(); i++ {
		if got := types.GetInt(b.ReadRow(i, nil), 0); got != int64(i+1) {
			t.Fatalf("row %d reads %d after Recycle, want %d", i, got, i+1)
		}
	}
}

// BenchmarkBlockAllocArena measures the block allocation hot path with
// the pooled arena (the shipped configuration): New + Recycle reuses
// one buffer per class.
func BenchmarkBlockAllocArena(b *testing.B) {
	sch := types.NewSchema(types.Col("a", types.Int64), types.Col("b", types.Float64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk := New(sch, DefaultSize, nil)
		blk.Recycle()
	}
}

// BenchmarkBlockAllocMake is the pre-arena baseline: every block is a
// fresh make handed to the GC, the behaviour New had before the pool.
func BenchmarkBlockAllocMake(b *testing.B) {
	sch := types.NewSchema(types.Col("a", types.Int64), types.Col("b", types.Float64))
	st := sch.Stride()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		capTuples := DefaultSize / st
		buf := make([]byte, capTuples*st)
		_ = buf
	}
}
