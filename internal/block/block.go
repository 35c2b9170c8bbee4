// Package block implements the engine's unit of data flow: fixed-capacity
// data blocks of tuples, sized to fit the L2 cache (64 KB by default, as
// in the paper, Section 5.1).
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

// Block is a batch of fixed-stride tuples plus tail metadata. Blocks are
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
	cap int // max tuples

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
// so a producer that writes whole rows below NumTuples leaves nothing
// of the buffer's previous contents readable.
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
// GetBuf caller overwrites it — so no view of the block (Row, Bytes,
// string Values) may still be live, and the block must not be used
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

// Bytes returns the used payload region (n tuples worth of bytes).
func (b *Block) Bytes() []byte { return b.buf[:b.n*b.sch.Stride()] }

// Row returns the i-th tuple as a byte slice view into the block.
func (b *Block) Row(i int) []byte {
	st := b.sch.Stride()
	return b.buf[i*st : (i+1)*st]
}

// AppendRow copies a record into the block. It panics if the block is
// full; callers check Full first.
func (b *Block) AppendRow(rec []byte) {
	if b.n >= b.cap {
		panic("block: append to full block")
	}
	copy(b.Row(b.n), rec)
	b.n++
}

// AppendRowTo reserves the next row slot and returns it for in-place
// construction.
func (b *Block) AppendRowTo() []byte {
	if b.n >= b.cap {
		panic("block: append to full block")
	}
	r := b.Row(b.n)
	b.n++
	return r
}

// EnsureRoom grows the block's payload so at least n more tuples fit.
// Operators with data-dependent fan-out (join probe, aggregation
// emission) use it to stay single-block per call.
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
	copy(buf, b.Bytes())
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
// projection) pre-size a block and fill rows in place through Bytes
// instead of appending row-at-a-time. n must not exceed Cap.
func (b *Block) SetLen(n int) {
	if n < 0 || n > b.cap {
		panic(fmt.Sprintf("block: SetLen(%d) outside capacity %d", n, b.cap))
	}
	b.n = n
}

// AppendSelected bulk-copies the rows of src named by the selection
// vector sel, growing the block as needed. Runs of consecutive indexes
// coalesce into single copies, so a low-selectivity filter degenerates
// to a handful of memmoves instead of one copy per surviving tuple.
// src must share this block's record layout (equal strides).
func (b *Block) AppendSelected(src *Block, sel []int32) {
	if len(sel) == 0 {
		return
	}
	st := b.sch.Stride()
	if src.sch.Stride() != st {
		panic("block: AppendSelected across different record layouts")
	}
	b.EnsureRoom(len(sel))
	dst := b.buf[b.n*st:]
	d := 0
	for i := 0; i < len(sel); {
		j := i + 1
		for j < len(sel) && sel[j] == sel[j-1]+1 {
			j++
		}
		run := (j - i) * st
		copy(dst[d:d+run], src.buf[int(sel[i])*st:])
		d += run
		i = j
	}
	b.n += len(sel)
}

// Get reads column col of tuple row.
func (b *Block) Get(row, col int) types.Value {
	return types.GetValue(b.Row(row), b.sch, col)
}

// Set writes column col of tuple row.
func (b *Block) Set(row, col int, v types.Value) {
	types.PutValue(b.Row(row), b.sch, col, v)
}

// SizeBytes returns the allocated payload size.
func (b *Block) SizeBytes() int { return len(b.buf) }

// WireSize returns the number of bytes Encode will produce.
func (b *Block) WireSize() int { return headerLen + b.n*b.sch.Stride() }

// --- wire format ----------------------------------------------------------

// headerLen is the fixed encoded header: numTuples(4) visitRate(8) seq(8).
const headerLen = 4 + 8 + 8

// Encode serializes the block (header + used payload) into dst, which
// must have capacity WireSize. It returns the encoded slice.
func (b *Block) Encode(dst []byte) []byte {
	need := b.WireSize()
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	binary.LittleEndian.PutUint32(dst[0:], uint32(b.n))
	binary.LittleEndian.PutUint64(dst[4:], math.Float64bits(b.VisitRate))
	binary.LittleEndian.PutUint64(dst[12:], b.Seq)
	copy(dst[headerLen:], b.Bytes())
	return dst
}

// EncodeAppend serializes the block onto the end of dst and returns the
// extended slice. Unlike Encode it never discards dst's existing
// contents, so callers can pack several blocks (plus framing) into one
// pooled buffer without an intermediate copy per block.
func (b *Block) EncodeAppend(dst []byte) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, headerLen)...)
	binary.LittleEndian.PutUint32(dst[at+0:], uint32(b.n))
	binary.LittleEndian.PutUint64(dst[at+4:], math.Float64bits(b.VisitRate))
	binary.LittleEndian.PutUint64(dst[at+12:], b.Seq)
	return append(dst, b.Bytes()...)
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
	copy(b.buf, payload)
	b.n = n
	b.VisitRate = math.Float64frombits(binary.LittleEndian.Uint64(src[4:]))
	b.Seq = binary.LittleEndian.Uint64(src[12:])
	return b, nil
}
