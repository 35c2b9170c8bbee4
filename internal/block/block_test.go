package block

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Col("id", types.Int64),
		types.Col("v", types.Float64),
		types.Char("name", 9),
	)
}

func TestAppendAndRead(t *testing.T) {
	sch := testSchema()
	b := New(sch, 0, nil)
	wantCap := DefaultSize / sch.Stride()
	if b.Cap() != wantCap {
		t.Fatalf("cap = %d, want %d", b.Cap(), wantCap)
	}
	rec := make([]byte, sch.Stride())
	for i := 0; i < 10; i++ {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i)))
		types.PutValue(rec, sch, 1, types.FloatVal(float64(i)*0.5))
		types.PutValue(rec, sch, 2, types.StrVal("row"))
		b.AppendRows(rec)
	}
	if b.NumTuples() != 10 {
		t.Fatalf("n = %d", b.NumTuples())
	}
	for i := 0; i < 10; i++ {
		if got := b.Get(i, 0).I; got != int64(i) {
			t.Errorf("row %d id = %d", i, got)
		}
		if got := b.Get(i, 1).F; got != float64(i)*0.5 {
			t.Errorf("row %d v = %f", i, got)
		}
		if got := b.Get(i, 2).S; got != "row" {
			t.Errorf("row %d name = %q", i, got)
		}
	}
}

func TestAppendFullPanics(t *testing.T) {
	sch := types.NewSchema(types.Col("x", types.Int64))
	b := New(sch, 8, nil) // capacity exactly 1 tuple
	b.AppendRows(make([]byte, 8))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow append")
		}
	}()
	b.AppendRows(make([]byte, 8))
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sch := testSchema()
	b := New(sch, 4096, nil)
	for i := 0; !b.Full(); i++ {
		r := make([]byte, b.Schema().Stride())
		types.PutValue(r, sch, 0, types.IntVal(int64(i*7)))
		types.PutValue(r, sch, 1, types.FloatVal(float64(i)/3))
		types.PutValue(r, sch, 2, types.StrVal("abcdefgh"))
		b.AppendRows(r)
	}
	b.VisitRate = 0.125
	b.Seq = 99

	enc := b.Encode(nil)
	// The header is the tuple count, the visit rate and the sequence
	// number: 4 + 8 + 8 bytes.
	if want := 20 + b.NumTuples()*sch.Stride(); len(enc) != want {
		t.Fatalf("encoded %d bytes, want %d", len(enc), want)
	}
	got, err := Decode(sch, enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTuples() != b.NumTuples() || got.VisitRate != 0.125 ||
		got.Seq != 99 {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	for i := 0; i < b.NumTuples(); i++ {
		for c := 0; c < sch.NumCols(); c++ {
			if b.Get(i, c).Compare(got.Get(i, c)) != 0 {
				t.Fatalf("row %d col %d mismatch", i, c)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	sch := testSchema()
	if _, err := Decode(sch, []byte{1, 2}, nil); err == nil {
		t.Error("short frame should error")
	}
	b := New(sch, 1024, nil)
	b.AppendRows(make([]byte, sch.Stride()))
	enc := b.Encode(nil)
	if _, err := Decode(sch, enc[:len(enc)-1], nil); err == nil {
		t.Error("truncated payload should error")
	}
}

// Property: encode/decode is the identity on tuple contents for random
// row counts and values (DESIGN.md invariant "block codec round-trip").
func TestRoundTripProperty(t *testing.T) {
	sch := types.NewSchema(types.Col("a", types.Int64), types.Char("s", 5))
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := New(sch, int(n%64+1)*sch.Stride(), nil)
		for i := 0; i < int(n)%b.Cap(); i++ {
			r := make([]byte, b.Schema().Stride())
			types.PutValue(r, sch, 0, types.IntVal(rng.Int63()))
			types.PutValue(r, sch, 1, types.StrVal(string(rune('a'+rng.Intn(26)))))
			b.AppendRows(r)
		}
		b.Seq = uint64(seed)
		got, err := Decode(sch, b.Encode(nil), nil)
		if err != nil || got.NumTuples() != b.NumTuples() || got.Seq != b.Seq {
			return false
		}
		for i := 0; i < b.NumTuples(); i++ {
			if b.Get(i, 0).I != got.Get(i, 0).I || b.Get(i, 1).S != got.Get(i, 1).S {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTracker(t *testing.T) {
	tr := NewTracker()
	b1 := New(testSchema(), 1024, tr)
	if tr.Current() != int64(b1.SizeBytes()) {
		t.Fatalf("current = %d", tr.Current())
	}
	b2 := New(testSchema(), 2048, tr)
	peakAt2 := tr.Current()
	b1.Release()
	b2.Release()
	if tr.Current() != 0 {
		t.Errorf("current after release = %d", tr.Current())
	}
	if tr.Peak() != peakAt2 {
		t.Errorf("peak = %d, want %d", tr.Peak(), peakAt2)
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				tr.Alloc(64)
				tr.Free(64)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if tr.Current() != 0 {
		t.Fatalf("current = %d after balanced alloc/free", tr.Current())
	}
	if tr.Peak() < 64 {
		t.Fatalf("peak = %d", tr.Peak())
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	sch := testSchema()
	blk := New(sch, DefaultSize, nil)
	for !blk.Full() {
		r := make([]byte, blk.Schema().Stride())
		types.PutValue(r, sch, 0, types.IntVal(7))
		types.PutValue(r, sch, 1, types.FloatVal(1.5))
		types.PutValue(r, sch, 2, types.StrVal("abc"))
		blk.AppendRows(r)
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = blk.Encode(buf)
		if _, err := Decode(sch, buf, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(blk.WireSize()))
}
