// Batch key extraction: the block-at-a-time counterpart of KeyEncoder.
// One EncodeBlock call evaluates every key expression column-at-a-time,
// assembles the composite keys into a single byte slab, and hashes each
// key — replacing a per-tuple Eval + appendValue + Hash64 round trip per
// key column with tight per-column loops plus one hashing pass.
//
// Keys are byte-identical to KeyEncoder.Encode and hashed with the same
// Hash64, so batch-built and row-built hash tables interoperate: hash
// join probes, aggregation shard placement and repartition routing all
// agree regardless of which side took which path.
package expr

import (
	"encoding/binary"
	"math"

	"repro/internal/block"
	"repro/internal/types"
)

// key-source strategies, picked once at construction per key expression.
const (
	ksIntCol   = iota // Int64/Date column: 0x01 + 8 LE bytes straight off the record
	ksFloatCol        // Float64 column: 0x01 + normalized bits
	ksStrCol          // CHAR column: 0x01 + trimmed bytes + 0xFF, no string alloc
	ksVec             // fused kernel: evaluate into a Vec, then append by kind
	ksRow             // fallback: Eval per row, appendValue — the row path verbatim
)

type keySrc struct {
	mode       int
	off, width int       // ksIntCol/ksFloatCol/ksStrCol
	kern       BatchExpr // ksVec
	vec        *Vec      // ksVec scratch, owned by the encoder
	e          Expr      // ksRow
}

// BatchKeyEncoder encodes the key expressions of all selected rows of a
// block in one call. Not safe for concurrent use; each worker owns one
// (the same discipline as KeyEncoder).
type BatchKeyEncoder struct {
	sch  *types.Schema
	srcs []keySrc
	// fixedW is the exact encoded key width when every source is a
	// fixed-width numeric column (9 bytes each: tag + payload), enabling
	// the indexed fast path in EncodeBlock; 0 otherwise.
	fixedW int

	slab   []byte  // concatenated keys
	ends   []int32 // ends[j] = end offset of key j in slab (start = ends[j-1])
	hashes []uint64
}

// NewBatchKeyEncoder builds a batch encoder for the key expressions
// under sch. Plain column references bypass kernels entirely; other
// fused shapes evaluate through CompileBatch; anything else falls back
// to row-at-a-time Eval for that expression only, keeping the encoding
// byte-identical to the row path even for runtime-kind-polymorphic
// expressions (e.g. CASE arms of mixed kinds).
func NewBatchKeyEncoder(exprs []Expr, sch *types.Schema) *BatchKeyEncoder {
	enc := &BatchKeyEncoder{sch: sch}
	for _, e := range exprs {
		var s keySrc
		if c, ok := e.(*Col); ok {
			col := sch.Cols[c.Idx]
			s.off, s.width = sch.Offset(c.Idx), col.Width
			switch col.Kind {
			case types.Int64, types.Date:
				s.mode = ksIntCol
			case types.Float64:
				s.mode = ksFloatCol
			default:
				s.mode = ksStrCol
			}
		} else if k := CompileBatch(e, sch); k.Fused() {
			s.mode, s.kern, s.vec = ksVec, k, new(Vec)
		} else {
			s.mode, s.e = ksRow, e
		}
		enc.srcs = append(enc.srcs, s)
	}
	enc.fixedW = 9 * len(enc.srcs)
	for _, s := range enc.srcs {
		if s.mode != ksIntCol && s.mode != ksFloatCol {
			enc.fixedW = 0
			break
		}
	}
	return enc
}

// NewRowKeyEncoder builds an encoder with the same block-level
// interface that computes every key expression by row-at-a-time Eval —
// KeyEncoder.Encode per row, no kernels and no direct column reads. It
// is what RowExec operators use, so forcing row execution changes how
// keys are computed but not the operator code around them.
func NewRowKeyEncoder(exprs []Expr, sch *types.Schema) *BatchKeyEncoder {
	enc := &BatchKeyEncoder{sch: sch}
	for _, e := range exprs {
		enc.srcs = append(enc.srcs, keySrc{mode: ksRow, e: e})
	}
	return enc
}

// Vectorized reports whether every key expression avoids the
// row-at-a-time fallback — the planner's Explain annotation for key
// computations.
func (enc *BatchKeyEncoder) Vectorized() bool {
	for _, s := range enc.srcs {
		if s.mode == ksRow {
			return false
		}
	}
	return true
}

// EncodeBlock encodes the keys of the selected rows (sel nil = all rows)
// and returns the row count. Key(j) and Hash(j) address the results
// densely: j-th selected row. The results are valid until the next
// EncodeBlock call.
func (enc *BatchKeyEncoder) EncodeBlock(b *block.Block, sel []int32) int {
	n := selCount(b, sel)
	enc.slab = enc.slab[:0]
	enc.ends = enc.ends[:0]
	enc.hashes = enc.hashes[:0]
	if n == 0 {
		return 0
	}
	if enc.fixedW > 0 {
		return enc.encodeFixed(b, sel, n)
	}
	// Reserve slab capacity for the worst case (full column widths) so
	// the assembly loop below never reallocates mid-block.
	worst := 0
	for i := range enc.srcs {
		s := &enc.srcs[i]
		switch s.mode {
		case ksIntCol, ksFloatCol, ksVec, ksRow:
			worst += 9 // tag + payload; strings from kernels may exceed, append handles it
		case ksStrCol:
			worst += s.width + 2 // tag + bytes + terminator
		}
	}
	if cap(enc.slab) < n*worst {
		enc.slab = make([]byte, 0, n*worst)
	}
	// Column pass: evaluate each fused kernel once over the whole block.
	for i := range enc.srcs {
		if s := &enc.srcs[i]; s.mode == ksVec {
			s.kern.EvalVec(b, sel, s.vec)
		}
	}
	st := enc.sch.Stride()
	payload := b.Bytes()
	// Assembly pass: concatenate per-row keys into the slab and hash
	// them. Direct column sources read the record bytes in place.
	for j := 0; j < n; j++ {
		row := j
		if sel != nil {
			row = int(sel[j])
		}
		rec := payload[row*st : row*st+st]
		start := len(enc.slab)
		for i := range enc.srcs {
			s := &enc.srcs[i]
			switch s.mode {
			case ksIntCol:
				enc.slab = append(enc.slab, 1)
				enc.slab = append(enc.slab, rec[s.off:s.off+8]...)
			case ksFloatCol:
				f := types.GetFloat(rec, s.off)
				if f == 0 {
					f = 0 // normalize -0.0, matching appendValue
				}
				var tmp [8]byte
				binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
				enc.slab = append(enc.slab, 1)
				enc.slab = append(enc.slab, tmp[:]...)
			case ksStrCol:
				// Capacity was reserved above: extend once, copy in place.
				sb := types.GetStringBytes(rec, s.off, s.width)
				l := len(enc.slab)
				enc.slab = enc.slab[:l+len(sb)+2]
				enc.slab[l] = 1
				copy(enc.slab[l+1:], sb)
				enc.slab[l+1+len(sb)] = 0xFF
			case ksVec:
				enc.slab = appendVecValue(enc.slab, s.vec, j)
			default: // ksRow
				enc.slab = appendValue(enc.slab, s.e.Eval(rec, enc.sch))
			}
		}
		enc.ends = append(enc.ends, int32(len(enc.slab)))
		enc.hashes = append(enc.hashes, Hash64(enc.slab[start:]))
	}
	return n
}

// encodeFixed is the all-numeric-column fast path: every key is exactly
// fixedW bytes, so the slab is sized up front and written by index —
// no append bookkeeping, no per-column dispatch beyond one branch.
// Output format is identical to the general pass (tag + 8 payload bytes
// per column, -0.0 normalized).
func (enc *BatchKeyEncoder) encodeFixed(b *block.Block, sel []int32, n int) int {
	kw := enc.fixedW
	need := n * kw
	if cap(enc.slab) < need {
		enc.slab = make([]byte, need)
	}
	enc.slab = enc.slab[:need]
	if cap(enc.ends) < n {
		enc.ends = make([]int32, n)
	}
	if cap(enc.hashes) < n {
		enc.hashes = make([]uint64, n)
	}
	enc.ends = enc.ends[:n]
	enc.hashes = enc.hashes[:n]

	st := enc.sch.Stride()
	payload := b.Bytes()
	for j := 0; j < n; j++ {
		row := j
		if sel != nil {
			row = int(sel[j])
		}
		rec := payload[row*st : row*st+st]
		out := enc.slab[j*kw : (j+1)*kw]
		o := 0
		for i := range enc.srcs {
			s := &enc.srcs[i]
			out[o] = 1
			if s.mode == ksIntCol {
				copy(out[o+1:o+9], rec[s.off:s.off+8])
			} else {
				f := types.GetFloat(rec, s.off)
				if f == 0 {
					f = 0 // normalize -0.0, matching appendValue
				}
				binary.LittleEndian.PutUint64(out[o+1:o+9], math.Float64bits(f))
			}
			o += 9
		}
		enc.ends[j] = int32((j + 1) * kw)
		enc.hashes[j] = Hash64(out)
	}
	return n
}

// Key returns the encoded key of the j-th selected row of the last
// EncodeBlock call. The slice aliases the encoder's slab: valid until
// the next EncodeBlock, and callers that retain it (hash-table inserts)
// must copy — the same contract as KeyEncoder.Encode.
func (enc *BatchKeyEncoder) Key(j int) []byte {
	start := int32(0)
	if j > 0 {
		start = enc.ends[j-1]
	}
	return enc.slab[start:enc.ends[j]]
}

// Hash returns the Hash64 of the j-th key of the last EncodeBlock call.
func (enc *BatchKeyEncoder) Hash(j int) uint64 { return enc.hashes[j] }

// appendVecValue appends entry j of a fused-kernel vector in appendValue
// format. Fused kernels are kind-faithful (their runtime Value kind
// always equals the static kind), so encoding from the typed vector is
// byte-identical to encoding the boxed Eval result.
func appendVecValue(buf []byte, v *Vec, j int) []byte {
	if v.Null[j] {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	switch v.Kind {
	case types.Int64, types.Date:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(v.I[j]))
		return append(buf, tmp[:]...)
	case types.Float64:
		f := v.F[j]
		if f == 0 {
			f = 0
		}
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
		return append(buf, tmp[:]...)
	default:
		buf = append(buf, v.S[j]...)
		return append(buf, 0xFF)
	}
}
