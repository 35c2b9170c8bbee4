package storage

import (
	"testing"

	"repro/internal/types"
)

var sch = types.NewSchema(types.Col("id", types.Int64), types.Char("s", 6))

func TestLoaderFillsBlocks(t *testing.T) {
	var st Store
	p := st.CreatePartition("t", sch)
	l := NewLoader(p, 64) // tiny blocks: 64/14 = 4 tuples each
	const rows = 41
	rec := make([]byte, sch.Stride())
	for i := 0; i < rows; i++ {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i)))
		types.PutValue(rec, sch, 1, types.StrVal("x"))
		l.Append(rec)
	}
	l.Close()
	if p.Rows != rows {
		t.Fatalf("rows = %d, want %d", p.Rows, rows)
	}
	total := 0
	for _, b := range p.Blocks {
		total += b.NumTuples()
		if b.NumTuples() == 0 {
			t.Fatal("empty block appended")
		}
	}
	if total != rows {
		t.Fatalf("block tuples = %d", total)
	}
}

func TestPartitionLookup(t *testing.T) {
	var st Store
	st.CreatePartition("orders", sch)
	if _, err := st.Partition("ORDERS"); err != nil {
		t.Fatal("case-insensitive partition lookup failed")
	}
	if _, err := st.Partition("nope"); err == nil {
		t.Fatal("missing partition should error")
	}
}

func TestPartitionBytes(t *testing.T) {
	var st Store
	p := st.CreatePartition("t", sch)
	l := NewLoader(p, 1024)
	rec := make([]byte, sch.Stride())
	for i := 0; i < 100; i++ {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i)))
		l.Append(rec)
	}
	l.Close()
	if p.Bytes() == 0 {
		t.Fatal("partition bytes not accounted")
	}
}

func TestEmptyLoaderClose(t *testing.T) {
	var st Store
	p := st.CreatePartition("t", sch)
	NewLoader(p, 256).Close()
	if len(p.Blocks) != 0 || p.Rows != 0 {
		t.Fatal("empty loader should leave the partition empty")
	}
}
