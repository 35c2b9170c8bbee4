package iterator

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/expr"
	"repro/internal/types"
)

// snapshotOutbox models both kinds of transport. Like the socket
// fabrics it takes its own copy of every block inside Send (through the
// wire codec), and the copies are what the test reads as delivered — so
// a sender that refills a staging block after Send cannot disturb them.
// Like the in-process fabric it also keeps the pointers it was handed:
// a sender that was not told the transport copies must leave those
// blocks alone for good, which CloseSend checks against the copies.
type snapshotOutbox struct {
	t         *testing.T
	sch       *types.Schema
	keepsPtrs bool             // the sender may not touch a block after Send
	copies    [][]*block.Block // per destination, decoded from the bytes seen at Send
	handed    [][]*block.Block // per destination, the blocks themselves
	closed    bool
}

func newSnapshotOutbox(t *testing.T, sch *types.Schema, n int, keepsPtrs bool) *snapshotOutbox {
	return &snapshotOutbox{t: t, sch: sch, keepsPtrs: keepsPtrs,
		copies: make([][]*block.Block, n), handed: make([][]*block.Block, n)}
}

func (c *snapshotOutbox) Destinations() int { return len(c.copies) }

func (c *snapshotOutbox) Send(d int, b *block.Block) error {
	cp, err := block.Decode(c.sch, b.Encode(nil), nil)
	if err != nil {
		return err
	}
	c.copies[d] = append(c.copies[d], cp)
	c.handed[d] = append(c.handed[d], b)
	return nil
}

func (c *snapshotOutbox) CloseSend() error {
	c.closed = true
	if !c.keepsPtrs {
		return nil
	}
	for d, blocks := range c.handed {
		for i, b := range blocks {
			if !bytes.Equal(b.Encode(nil), c.copies[d][i].Encode(nil)) {
				c.t.Errorf("destination %d block %d changed after Send", d, i)
			}
		}
	}
	return nil
}

// TestSenderRepartition checks the hash scatter against the row-at-a-
// time definition of repartitioning: every input row arrives exactly
// once, at destination KeyEncoder.Hash(row) % n (where TableLoader
// places it), in blocks that ship full (all but the last per
// destination), with the sent and total counters adding up — with and
// without staging reuse.
func TestSenderRepartition(t *testing.T) {
	sch := types.NewSchema(
		types.Col("id", types.Int64),
		types.Col("k", types.Int64),
		types.Char("s", 12),
	)
	const rows, blockSize = 5000, 2048
	p := buildPartition(sch, rows, 1024, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i)))
		types.PutValue(rec, sch, 1, types.IntVal(int64(i%97)))
		types.PutValue(rec, sch, 2, types.StrVal(fmt.Sprintf("name-%d", i%513)))
	})
	keySets := map[string][]expr.Expr{
		"one column":  {expr.NewCol(0, "id")},
		"computed":    {expr.NewArith(expr.Add, expr.NewCol(0, "id"), expr.NewConst(types.IntVal(0)))},
		"two columns": {expr.NewCol(1, "k"), expr.NewCol(0, "id")},
		"string":      {expr.NewCol(2, "s")},
	}
	for name, keys := range keySets {
		for _, n := range []int{2, 3, 5} {
			for _, reuse := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/n=%d/reuse=%v", name, n, reuse), func(t *testing.T) {
					out := newSnapshotOutbox(t, sch, n, !reuse)
					s := NewSender(NewScan(p.Schema, p), sch, out, keys)
					s.SetBlockSize(blockSize)
					s.SendCopies = reuse
					if err := s.Run(&Ctx{Term: &TermFlag{}}); err != nil {
						t.Fatal(err)
					}
					if !out.closed {
						t.Fatal("sender did not close streams")
					}
					row := expr.NewKeyEncoder(keys)
					seen := make(map[int64]bool)
					var total int64
					for d, blocks := range out.copies {
						var got int64
						for i, b := range blocks {
							if i < len(blocks)-1 && b.NumTuples() != blockSize/sch.Stride() {
								t.Errorf("destination %d block %d shipped %d tuples, a full block holds %d",
									d, i, b.NumTuples(), blockSize/sch.Stride())
							}
							for r := 0; r < b.NumTuples(); r++ {
								rec := b.ReadRow(r, nil)
								if want := int(row.Hash(rec, sch) % uint64(n)); want != d {
									t.Fatalf("row id %d arrived at %d, hashes to %d", b.Get(r, 0).I, d, want)
								}
								id := b.Get(r, 0).I
								if seen[id] {
									t.Fatalf("row id %d arrived twice", id)
								}
								seen[id] = true
								got++
							}
						}
						if s.sent[d] != got {
							t.Errorf("sent[%d] = %d, destination received %d", d, s.sent[d], got)
						}
						total += got
					}
					if total != rows || s.total != rows {
						t.Fatalf("delivered %d rows, total counter %d, want %d", total, s.total, rows)
					}
				})
			}
		}
	}
}

func TestSenderGather(t *testing.T) {
	sch := types.NewSchema(types.Col("k", types.Int64))
	p := buildPartition(sch, 100, 256, func(i int, rec []byte) {
		types.PutValue(rec, sch, 0, types.IntVal(int64(i)))
	})
	// Nil keys gather at destination 0 however many there are.
	out := newChanOutbox(2)
	s := NewSender(NewScan(p.Schema, p), sch, out, nil)
	if err := s.Run(&Ctx{Term: &TermFlag{}}); err != nil {
		t.Fatal(err)
	}
	if got := totalTuples(out.dests[0]); got != 100 || len(out.dests[1]) != 0 {
		t.Fatalf("gather delivered %d tuples to 0 and %d blocks to 1", got, len(out.dests[1]))
	}
}

// discardOutbox accepts and forgets every block, as a transport that
// has copied it would.
type discardOutbox struct{ n int }

func (o discardOutbox) Destinations() int            { return o.n }
func (o discardOutbox) Send(int, *block.Block) error { return nil }
func (o discardOutbox) CloseSend() error             { return nil }

// lineitemBlocks returns 64 KB blocks of lineitem-shaped rows: two
// integer keys, four numerics, a date and two short strings. Callers
// replay them, so they are shared.
func lineitemBlocks(n int) (*types.Schema, []*block.Block) {
	sch := types.NewSchema(
		types.Col("l_orderkey", types.Int64),
		types.Col("l_partkey", types.Int64),
		types.Col("l_quantity", types.Float64),
		types.Col("l_extendedprice", types.Float64),
		types.Col("l_discount", types.Float64),
		types.Col("l_tax", types.Float64),
		types.Col("l_shipdate", types.Date),
		types.Char("l_returnflag", 1),
		types.Char("l_shipmode", 10),
	)
	blocks := make([]*block.Block, n)
	row := 0
	for i := range blocks {
		b := block.New(sch, 0, nil)
		for !b.Full() {
			rec := make([]byte, b.Schema().Stride())
			types.PutValue(rec, sch, 0, types.IntVal(int64(row/4)))
			types.PutValue(rec, sch, 1, types.IntVal(int64(row*7919%200000)))
			types.PutValue(rec, sch, 2, types.FloatVal(float64(row%50)))
			types.PutValue(rec, sch, 6, types.DateVal(int64(9000+row%2500)))
			types.PutValue(rec, sch, 8, types.StrVal("TRUCK"))
			row++
			b.AppendRows(rec)
		}
		b.MarkShared()
		blocks[i] = b
	}
	return sch, blocks
}

// TestSenderRouteAllocs pins the repartition path's steady state: on a
// sender whose scratch and staging blocks are warm, routing a 64 KB
// block allocates (at most a rounding error of) nothing.
func TestSenderRouteAllocs(t *testing.T) {
	sch, blocks := lineitemBlocks(4)
	s := NewSender(nil, sch, discardOutbox{3}, []expr.Expr{expr.NewCol(1, "l_partkey")})
	s.SendCopies = true
	s.pending = make([]*block.Block, 3)
	s.sent = make([]int64, 3)
	route := func() {
		for _, b := range blocks {
			if err := s.route(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	route() // warm: encoder slab, selection vectors, staging blocks
	if per := testing.AllocsPerRun(20, route) / float64(len(blocks)); per > 2 {
		t.Fatalf("Sender.route allocates %.1f objects per 64 KB block, want at most 2", per)
	}
}
