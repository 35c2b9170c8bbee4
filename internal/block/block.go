// Package block implements the engine's unit of data flow: fixed-capacity
// data blocks of tuples, sized to fit the L2 cache (64 KB by default, as
// in the paper, Section 5.1).
//
// Inside its buffer a block stores each column contiguously (PAX): for
// a block of capacity cap, column c starts at cap times the sum of the
// widths of the columns before it (types.Schema.Offset), and value i of
// it sits i widths further on. A kernel that reads one column reads
// consecutive bytes (Col); a row exists only as a record a caller
// gathers (ReadRow) or scatters (AppendRows), and operations on whole
// rows copy column by column (AppendSelected, EnsureRoom, the codec).
//
// A block carries two pieces of tail metadata on top of its tuples:
//
//   - the average visit rate of its tuples (Section 4.3): the scheduler's
//     V_i statistic is propagated through the dataflow by piggybacking it
//     on blocks instead of with explicit control messages;
//   - a sequence number assigned by the stage beginner, used by elastic
//     iterators to preserve tuple order across a variable worker pool
//     (Section 3.2, Order Preservation).
package block

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/types"
)

// DefaultSize is the default payload capacity of a block in bytes. 64 KB
// matches the paper's choice, tuned to the per-core L2 cache.
const DefaultSize = 64 * 1024

// Block is a batch of tuples, one contiguous run of bytes per column,
// plus tail metadata. Blocks are
// not safe for concurrent mutation; ownership passes along the dataflow
// under one rule (DESIGN.md, "Block ownership"): a block returned by an
// iterator's Next, an inbox's Recv or Decode belongs to its caller
// alone. Whoever has copied out what it needs calls Recycle; whoever
// forwards the block gives it away and does not touch it again; a block
// nobody recycles is simply collected.
type Block struct {
	sch *types.Schema
	buf []byte
	n   int
	cap int // max tuples; column c starts at cap*sch.Offset(c)

	// VisitRate is the average visit rate of the tuples in this block
	// relative to the pipeline's input group (Section 4.3). The input
	// group stamps 1.0; every operator multiplies by its selectivity and
	// partitioning fraction as the block flows downstream.
	VisitRate float64

	// Seq is the order-preservation sequence number assigned by the
	// stage beginner that produced the tuples in this block.
	Seq uint64

	tracker *Tracker
	// shared marks a payload with readers besides the holder of this
	// Block value; see MarkShared.
	shared bool
}

// New allocates an empty block for the schema with the given payload
// capacity in bytes. A nil tracker disables memory accounting. The
// payload is not zeroed: records carry no null bitmap and no padding,
// so a producer that writes every column of the rows below NumTuples
// leaves nothing of the buffer's previous contents readable.
func New(sch *types.Schema, sizeBytes int, tr *Tracker) *Block {
	if sizeBytes <= 0 {
		sizeBytes = DefaultSize
	}
	capTuples := sizeBytes / sch.Stride()
	if capTuples < 1 {
		capTuples = 1
	}
	b := &Block{
		sch:       sch,
		buf:       GetBuf(capTuples * sch.Stride()),
		cap:       capTuples,
		VisitRate: 1.0,
		tracker:   tr,
	}
	if tr != nil {
		tr.Alloc(int64(len(b.buf)))
	}
	return b
}

// Release returns the block's bytes to the tracker. The block must not be
// used afterwards.
func (b *Block) Release() {
	if b.tracker != nil {
		b.tracker.Free(int64(len(b.buf)))
		b.tracker = nil
	}
}

// MarkShared declares that the payload has readers besides the holder
// of this Block value, for as long as the payload lives: table storage
// blocks, which every scan of every query hands out again, and the
// input of a harness that replays its blocks. Copies of the Block value
// (a scan's stamped wrappers) inherit the mark. For a shared block
// Recycle is Release only, so a consumer need not know where its input
// came from.
func (b *Block) MarkShared() { b.shared = true }

// Recycle is how the block's owner disposes of it: it releases the
// accounting like Release and hands the buffer to the arena, whose next
// GetBuf caller overwrites it — so no view of the block (Col, string
// Values) may still be live, and the block must not be used
// afterwards. A second Recycle is a no-op. A shared block keeps its
// payload (see MarkShared).
func (b *Block) Recycle() {
	b.Release()
	if b.shared {
		return
	}
	PutBuf(b.buf)
	b.buf = nil
	b.cap = 0
	b.n = 0
}

// Schema returns the block's schema.
func (b *Block) Schema() *types.Schema { return b.sch }

// NumTuples returns the number of tuples currently in the block.
func (b *Block) NumTuples() int { return b.n }

// Cap returns the tuple capacity.
func (b *Block) Cap() int { return b.cap }

// Full reports whether no more tuples fit.
func (b *Block) Full() bool { return b.n >= b.cap }

// Col returns column c of the block's tuples, the one column view every
// kernel reads and every vectorized writer fills: value i occupies bytes
// [i*w, (i+1)*w), w being the column's width. The view covers the
// NumTuples rows (a writer sizes the block with SetLen first) and is
// valid until the block grows or is recycled.
func (b *Block) Col(c int) []byte {
	base, w := b.cap*b.sch.Offset(c), b.sch.Cols[c].Width
	end := base + b.n*w
	return b.buf[base:end:end]
}

// ReadRow gathers tuple i into rec as a record (the schema's row layout:
// types.Schema.Offset and Stride), reusing rec's storage when it holds a
// record, and returns it. The record is the caller's; the row-at-a-time
// paths (Eval, the spill stage, join pages, sort) read rows this way.
func (b *Block) ReadRow(i int, rec []byte) []byte {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("block: ReadRow(%d) outside %d tuples", i, b.n))
	}
	st := b.sch.Stride()
	if cap(rec) < st {
		rec = make([]byte, st)
	}
	rec = rec[:st]
	for c, col := range b.sch.Cols {
		off, w := b.sch.Offset(c), col.Width
		at := b.cap*off + i*w
		if w == 8 {
			binary.LittleEndian.PutUint64(rec[off:], binary.LittleEndian.Uint64(b.buf[at:]))
		} else {
			copy(rec[off:off+w], b.buf[at:at+w])
		}
	}
	return rec
}

// AppendRows scatters records, laid out back to back in the schema's
// row layout, into the next tuples: one record for a row-at-a-time
// writer, a staged batch of them for the loader. It panics if they do
// not fit; callers check Full or Cap first.
func (b *Block) AppendRows(recs []byte) {
	st := b.sch.Stride()
	n := len(recs) / st
	if n*st != len(recs) || b.n+n > b.cap {
		panic(fmt.Sprintf("block: append of %d bytes of %d-byte records to %d of %d tuples", len(recs), st, b.n, b.cap))
	}
	for c, col := range b.sch.Cols {
		off, w := b.sch.Offset(c), col.Width
		dst := b.buf[b.cap*off+b.n*w : b.cap*off+(b.n+n)*w]
		switch w {
		case 8:
			for r := 0; r < n; r++ {
				binary.LittleEndian.PutUint64(dst[r*8:], binary.LittleEndian.Uint64(recs[r*st+off:]))
			}
		case 1:
			for r := range dst {
				dst[r] = recs[r*st+off]
			}
		default:
			for r := 0; r < n; r++ {
				copy(dst[r*w:r*w+w], recs[r*st+off:])
			}
		}
	}
	b.n += n
}

// EnsureRoom grows the block's payload so at least n more tuples fit.
// Operators with data-dependent fan-out (join probe, aggregation
// emission) use it to stay single-block per call. Each column moves to
// its place under the new capacity.
//
// Accounting: while a tracker is attached, growth records only the byte
// delta (New recorded the initial allocation), so Release — which frees
// len(buf), the grown size — balances exactly. A block grown after
// Release stays untracked: Release detached the tracker, accounting for
// that block ended there, and the block never re-attaches one.
func (b *Block) EnsureRoom(n int) {
	need := b.n + n
	if need <= b.cap {
		return
	}
	newCap := b.cap * 2
	if newCap < need {
		newCap = need
	}
	buf := GetBuf(newCap * b.sch.Stride())
	for c, col := range b.sch.Cols {
		off := b.sch.Offset(c)
		copy(buf[newCap*off:], b.buf[b.cap*off:b.cap*off+b.n*col.Width])
	}
	if b.tracker != nil {
		b.tracker.Alloc(int64(len(buf) - len(b.buf)))
	}
	// The outgrown buffer has a single owner (the block), and views into
	// it are only handed downstream after the producer stops appending —
	// so at EnsureRoom time nothing else can reference it.
	PutBuf(b.buf)
	b.buf = buf
	b.cap = newCap
}

// Reset empties the block for reuse, restoring the metadata defaults.
func (b *Block) Reset() {
	b.n = 0
	b.VisitRate = 1.0
	b.Seq = 0
}

// SetLen sets the tuple count directly. Vectorized writers (batch
// projection, aggregation and join emission) pre-size a block and fill
// its columns through Col instead of appending row-at-a-time. n must
// not exceed Cap.
func (b *Block) SetLen(n int) {
	if n < 0 || n > b.cap {
		panic(fmt.Sprintf("block: SetLen(%d) outside capacity %d", n, b.cap))
	}
	b.n = n
}

// AppendSelected copies the rows of src named by the selection vector
// sel, which ascends strictly (a filter's or a split's), column by
// column, growing the block as needed. A selection that is one run is
// one copy per column. src must share this block's column widths.
func (b *Block) AppendSelected(src *Block, sel []int32) {
	if len(sel) == 0 {
		return
	}
	if !sameWidths(b.sch, src.sch) {
		panic("block: AppendSelected across different column layouts")
	}
	b.EnsureRoom(len(sel))
	first := int(sel[0])
	run := int(sel[len(sel)-1])-first == len(sel)-1
	for c, col := range b.sch.Cols {
		off, w := b.sch.Offset(c), col.Width
		dst, from := b.buf[b.cap*off+b.n*w:], src.buf[src.cap*off:src.cap*off+src.n*w]
		if run {
			copy(dst[:len(sel)*w], from[first*w:])
		} else {
			Gather(dst, from, w, sel)
		}
	}
	b.n += len(sel)
}

// sameWidths reports whether two schemas have the same column widths,
// in order: blocks of either can exchange rows column by column.
func sameWidths(a, b *types.Schema) bool {
	if a == b {
		return true
	}
	if len(a.Cols) != len(b.Cols) {
		return false
	}
	for c := range a.Cols {
		if a.Cols[c].Width != b.Cols[c].Width {
			return false
		}
	}
	return true
}

// Gather copies values sel[0], sel[1], … of a column src, w bytes each,
// densely to dst: the column copy behind every whole-row operation. sel
// may repeat an index (a join's probe row with several matches). 8- and
// 1-byte columns move a value per load and store, wider ones a run of
// consecutive indexes per copy.
func Gather(dst, src []byte, w int, sel []int32) {
	switch w {
	case 8:
		dst = dst[:len(sel)*8]
		for j, i := range sel {
			binary.LittleEndian.PutUint64(dst[j*8:], binary.LittleEndian.Uint64(src[int(i)*8:]))
		}
	case 1:
		dst = dst[:len(sel)]
		for j, i := range sel {
			dst[j] = src[i]
		}
	default:
		d := 0
		for i := 0; i < len(sel); {
			j := i + 1
			for j < len(sel) && sel[j] == sel[j-1]+1 {
				j++
			}
			run := (j - i) * w
			copy(dst[d:d+run], src[int(sel[i])*w:])
			d += run
			i = j
		}
	}
}

// Get reads column col of tuple row.
func (b *Block) Get(row, col int) types.Value {
	c := b.sch.Cols[col]
	return types.GetField(b.buf, b.cap*b.sch.Offset(col)+row*c.Width, c)
}

// Set writes column col of tuple row.
func (b *Block) Set(row, col int, v types.Value) {
	c := b.sch.Cols[col]
	types.PutField(b.buf, b.cap*b.sch.Offset(col)+row*c.Width, c, v)
}

// SizeBytes returns the allocated payload size.
func (b *Block) SizeBytes() int { return len(b.buf) }

// WireSize returns the number of bytes Encode will produce.
func (b *Block) WireSize() int { return headerLen + b.n*b.sch.Stride() }

// --- wire format ----------------------------------------------------------

// headerLen is the fixed encoded header: numTuples(4) visitRate(8) seq(8).
const headerLen = 4 + 8 + 8

// The payload after the header is the block's columns compacted to its
// tuples: column c's n values start at n*Offset(c). That is the buffer
// of a block whose capacity is n, so a full block encodes, and every
// block decodes, with one copy.

// Encode serializes the block (header + used payload) into dst, which
// must have capacity WireSize. It returns the encoded slice.
func (b *Block) Encode(dst []byte) []byte {
	need := b.WireSize()
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	return b.EncodeAppend(dst[:0])
}

// EncodeAppend serializes the block onto the end of dst and returns the
// extended slice. Unlike Encode it never discards dst's existing
// contents, so callers can pack several blocks (plus framing) into one
// pooled buffer without an intermediate copy per block.
func (b *Block) EncodeAppend(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.n))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.VisitRate))
	dst = binary.LittleEndian.AppendUint64(dst, b.Seq)
	if b.n == b.cap {
		return append(dst, b.buf[:b.n*b.sch.Stride()]...)
	}
	for c, col := range b.sch.Cols {
		base := b.cap * b.sch.Offset(c)
		dst = append(dst, b.buf[base:base+b.n*col.Width]...)
	}
	return dst
}

// Decode parses an encoded block for the given schema. The payload is
// copied so src may be reused, and the block is the caller's. src must
// be exactly one encoded block: bytes past the declared tuples are
// refused, not ignored — every caller frames blocks individually, so a
// longer frame is a corrupt one.
func Decode(sch *types.Schema, src []byte, tr *Tracker) (*Block, error) {
	if len(src) < headerLen {
		return nil, fmt.Errorf("block: short frame (%d bytes)", len(src))
	}
	n := int(binary.LittleEndian.Uint32(src[0:]))
	payload := src[headerLen:]
	if want := n * sch.Stride(); len(payload) != want {
		return nil, fmt.Errorf("block: payload of %d bytes, %d tuples want %d", len(payload), n, want)
	}
	capTuples := n
	if capTuples < 1 {
		capTuples = 1
	}
	b := &Block{sch: sch, buf: GetBuf(capTuples * sch.Stride()), cap: capTuples,
		VisitRate: 1.0, tracker: tr}
	if tr != nil {
		tr.Alloc(int64(len(b.buf)))
	}
	copy(b.buf, payload) // capacity n: the compacted columns are the layout
	b.n = n
	b.VisitRate = math.Float64frombits(binary.LittleEndian.Uint64(src[4:]))
	b.Seq = binary.LittleEndian.Uint64(src[12:])
	return b, nil
}
