// Batch key extraction: the block-at-a-time counterpart of KeyEncoder.
// One EncodeBlock call evaluates every key expression column-at-a-time,
// assembles the composite keys into a single byte slab, and hashes each
// key — replacing a per-tuple Eval + appendValue + Hash64 round trip per
// key column with tight per-column loops plus one hashing pass.
//
// Keys are byte-identical to KeyEncoder.Encode and hashed by the same
// rule (key.go): a one-integer key by its word, any other by Hash64. So
// table placement at load, repartition routing, join build and probe
// and aggregation shards all agree, whichever path each side took. A
// one-integer key read straight off a record column is hashed without
// writing its bytes at all, unless the caller asks for them (WithKeys).
// The one private hash is NewGroupKeyEncoder's packed CHAR word, which
// stays inside the aggregation that made it.
package expr

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/block"
	"repro/internal/types"
)

// key-source strategies, picked once at construction per key expression.
const (
	ksIntCol   = iota // Int64/Date column: 0x01 + 8 LE bytes straight off the column
	ksFloatCol        // Float64 column: 0x01 + normalized bits
	ksStrCol          // CHAR column: 0x01 + trimmed bytes + 0xFF, no string alloc
	ksVec             // fused kernel: evaluate into a Vec, then append by kind
	ksRow             // fallback: Eval per row, appendValue — the row path verbatim
)

type keySrc struct {
	mode       int
	col, width int       // ksIntCol/ksFloatCol/ksStrCol
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
	// words is set for a key that is its own word: one Int64 or Date
	// column (until WithKeys), or NewGroupKeyEncoder's packed CHARs.
	// EncodeBlock then packs and hashes words and writes no key bytes
	// (encodeWords).
	words []wordField

	slab   []byte  // concatenated keys
	ends   []int32 // ends[j] = end offset of key j in slab (start = ends[j-1])
	hashes []uint64
	cols   [][]byte // per source, its column of the current block (column sources)
	rec    []byte   // the gathered row a ksRow source evaluates
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
			s.col, s.width = c.Idx, col.Width
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
	if len(enc.srcs) == 1 && enc.srcs[0].mode == ksIntCol {
		enc.words = []wordField{{col: enc.srcs[0].col, width: 8, mask: ^uint64(0)}}
	}
	return enc
}

// WithKeys makes EncodeBlock write every key's bytes, so that Key is
// defined, and returns enc. The hashes do not change: a one-integer
// column key still hashes by its word. Call it on a NewBatchKeyEncoder
// before the first EncodeBlock, when the keys are compared as bytes (a
// join whose other side's key is not a plain integer column).
func (enc *BatchKeyEncoder) WithKeys() *BatchKeyEncoder {
	enc.words = nil
	return enc
}

// Fork returns an encoder of the same keys with scratch of its own, for
// another worker: the compiled sources and word layout are shared (only
// a fused kernel's vector is copied), so an operator compiles its keys
// once and each worker pays one allocation for its encoder.
func (enc *BatchKeyEncoder) Fork() *BatchKeyEncoder {
	f := &BatchKeyEncoder{sch: enc.sch, srcs: enc.srcs, fixedW: enc.fixedW, words: enc.words}
	for i := range enc.srcs {
		if enc.srcs[i].mode == ksVec {
			f.srcs = append([]keySrc(nil), enc.srcs...)
			for j := range f.srcs {
				if f.srcs[j].mode == ksVec {
					f.srcs[j].vec = new(Vec)
				}
			}
			break
		}
	}
	return f
}

// wordField is one column of a word key: which column it is and which
// bits of the word it fills.
type wordField struct {
	col, width int
	shift      uint   // the field's first byte lands at bit shift
	mask       uint64 // the low 8*width bits
	char       bool   // a CHAR field of two bytes or more: cut at its first NUL, as GetStringBytes is
}

// NewGroupKeyEncoder is NewBatchKeyEncoder for a hash aggregation's
// group keys. When every key is a plain column and the key fits in one
// word — one Int64 or Date column, or CHAR columns whose widths sum to
// at most 8 — each key is packed into a uint64 at fixed bit positions
// and Hash returns a bijection of that word (Word reports it). Two rows
// then have equal hashes exactly when their general encodings are equal,
// so the hash is the key and Key is not defined. For one Int64 or Date
// column the word is the integer and the hash is the rule's, the one
// every encoder gives that key; packed CHARs are the aggregation's own
// and may not route rows or meet a table built by another encoder. Any
// other key list gets the general encoder.
func NewGroupKeyEncoder(exprs []Expr, sch *types.Schema) *BatchKeyEncoder {
	enc := NewBatchKeyEncoder(exprs, sch)
	enc.words = wordFields(exprs, sch)
	return enc
}

// wordFields lays out a word key's fields, or returns nil when the keys
// do not make one.
func wordFields(exprs []Expr, sch *types.Schema) []wordField {
	var fs []wordField
	used := 0 // bits
	for _, e := range exprs {
		c, ok := e.(*Col)
		if !ok {
			return nil
		}
		col := sch.Cols[c.Idx]
		f := wordField{col: c.Idx, width: col.Width, shift: uint(used)}
		switch col.Kind {
		case types.Int64, types.Date:
			f.width = 8
		case types.String:
			// A one-byte field cut at its NUL is itself.
			f.char = col.Width > 1
		default:
			return nil
		}
		if used += 8 * f.width; used > 64 {
			return nil
		}
		f.mask = ^uint64(0) >> (64 - 8*f.width)
		fs = append(fs, f)
	}
	return fs
}

// Word reports whether the encoder packs its keys into words: Hash is
// then the key, and Key is not defined. A NewBatchKeyEncoder is a word
// encoder exactly when its key is one Int64 or Date column and WithKeys
// was not called.
func (enc *BatchKeyEncoder) Word() bool { return enc.words != nil }

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
	if enc.words != nil {
		return enc.encodeWords(b, sel, n)
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
	enc.loadCols(b)
	for i := range enc.srcs {
		if s := &enc.srcs[i]; s.mode == ksVec {
			s.kern.EvalVec(b, sel, s.vec)
		}
	}
	// Assembly pass: concatenate per-row keys into the slab and hash
	// them. Direct column sources read the column bytes in place.
	for j := 0; j < n; j++ {
		row := j
		if sel != nil {
			row = int(sel[j])
		}
		start := len(enc.slab)
		// word: the row's key is one integer value, hashed by its word.
		var word uint64
		isWord := false
		for i := range enc.srcs {
			s := &enc.srcs[i]
			col := enc.cols[i]
			switch s.mode {
			case ksIntCol:
				enc.slab = append(enc.slab, 1)
				enc.slab = append(enc.slab, col[row*8:row*8+8]...)
			case ksFloatCol:
				f := types.GetFloat(col, row*8)
				if f == 0 {
					f = 0 // normalize -0.0, matching appendValue
				}
				var tmp [8]byte
				binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
				enc.slab = append(enc.slab, 1)
				enc.slab = append(enc.slab, tmp[:]...)
			case ksStrCol:
				// Capacity was reserved above: extend once, copy in place.
				sb := types.GetStringBytes(col, row*s.width, s.width)
				l := len(enc.slab)
				enc.slab = enc.slab[:l+len(sb)+2]
				enc.slab[l] = 1
				copy(enc.slab[l+1:], sb)
				enc.slab[l+1+len(sb)] = 0xFF
			case ksVec:
				enc.slab = appendVecValue(enc.slab, s.vec, j)
				if k := s.vec.Kind; len(enc.srcs) == 1 && !s.vec.Null[j] && (k == types.Int64 || k == types.Date) {
					word, isWord = uint64(s.vec.I[j]), true
				}
			default: // ksRow
				enc.rec = b.ReadRow(row, enc.rec)
				v := s.e.Eval(enc.rec, enc.sch)
				enc.slab = appendValue(enc.slab, v)
				if len(enc.srcs) == 1 && isWordValue(v) {
					word, isWord = uint64(v.I), true
				}
			}
		}
		enc.ends = append(enc.ends, int32(len(enc.slab)))
		if isWord {
			enc.hashes = append(enc.hashes, mixWord(word))
		} else {
			enc.hashes = append(enc.hashes, Hash64(enc.slab[start:]))
		}
	}
	return n
}

// encodeFixed is the all-numeric-column fast path: every key is exactly
// fixedW bytes, so the slab is sized up front and written by index —
// no append bookkeeping, no per-column dispatch beyond one branch.
// Output format is identical to the general pass (tag + 8 payload bytes
// per column, -0.0 normalized). A one-integer key (an encoder that
// WithKeys took off its words) hashes by its word.
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

	enc.loadCols(b)
	oneInt := len(enc.srcs) == 1 && enc.srcs[0].mode == ksIntCol
	for j := 0; j < n; j++ {
		row := j
		if sel != nil {
			row = int(sel[j])
		}
		out := enc.slab[j*kw : (j+1)*kw]
		o := 0
		for i := range enc.srcs {
			s, col := &enc.srcs[i], enc.cols[i]
			out[o] = 1
			if s.mode == ksIntCol {
				copy(out[o+1:o+9], col[row*8:row*8+8])
			} else {
				f := types.GetFloat(col, row*8)
				if f == 0 {
					f = 0 // normalize -0.0, matching appendValue
				}
				binary.LittleEndian.PutUint64(out[o+1:o+9], math.Float64bits(f))
			}
			o += 9
		}
		enc.ends[j] = int32((j + 1) * kw)
		if oneInt {
			enc.hashes[j] = mixWord(binary.LittleEndian.Uint64(out[1:]))
		} else {
			enc.hashes[j] = Hash64(out)
		}
	}
	return n
}

// loadCols points enc.cols at the columns of b its column sources read.
func (enc *BatchKeyEncoder) loadCols(b *block.Block) {
	if len(enc.cols) < len(enc.srcs) {
		enc.cols = make([][]byte, len(enc.srcs))
	}
	for i := range enc.srcs {
		if s := &enc.srcs[i]; s.mode <= ksStrCol {
			enc.cols[i] = b.Col(s.col)
		}
	}
}

// encodeWords is EncodeBlock for a word key: each row's fields are
// packed into one uint64 and the word's mix is its hash. A CHAR field
// keeps its bytes up to the first NUL and zeroes the rest, so two
// fields pack equal exactly when GetStringBytes reads them equal; the
// fields sit at fixed bit positions, so ("", "A") and ("A", "") differ.
// The words are built a field at a time, each pass over one column.
func (enc *BatchKeyEncoder) encodeWords(b *block.Block, sel []int32, n int) int {
	if cap(enc.hashes) < n {
		enc.hashes = make([]uint64, n)
	}
	hashes := enc.hashes[:n]
	enc.hashes = hashes
	if f := enc.words[0]; len(enc.words) == 1 && !f.char && f.width == 8 {
		// One integer column: one load and the mix per row.
		col := b.Col(f.col)
		if sel == nil {
			for j := range hashes {
				hashes[j] = mixWord(binary.LittleEndian.Uint64(col[j*8:]))
			}
			return n
		}
		for j, row := range sel {
			hashes[j] = mixWord(binary.LittleEndian.Uint64(col[int(row)*8:]))
		}
		return n
	}
	clear(hashes)
	for i := range enc.words {
		f := &enc.words[i]
		col, w := b.Col(f.col), f.width
		if w == 1 {
			// A one-byte field is its byte (a NUL cut leaves it as is).
			shift := f.shift
			if sel == nil {
				col = col[:n]
				for j := range hashes {
					hashes[j] |= uint64(col[j]) << shift
				}
			} else {
				hashes := hashes[:len(sel)]
				for j, row := range sel {
					hashes[j] |= uint64(col[row]) << shift
				}
			}
			continue
		}
		for j := range hashes {
			row := j
			if sel != nil {
				row = int(sel[j])
			}
			var v uint64
			switch at := row * w; {
			case at+8 <= len(col):
				// One load and the mask, unless the field ends within 8
				// bytes of the column's end: then byte by byte.
				v = binary.LittleEndian.Uint64(col[at:]) & f.mask
			default:
				for k := at + w - 1; k >= at; k-- {
					v = v<<8 | uint64(col[k])
				}
			}
			if f.char {
				v = cutAtNUL(v)
			}
			hashes[j] |= v << f.shift
		}
	}
	for j, w := range hashes {
		hashes[j] = mixWord(w)
	}
	return n
}

// cutAtNUL zeroes the bytes of v (little-endian) from its first zero
// byte on. z flags every zero byte, and possibly bytes above one, with
// its high bit; the lowest flag is always the first zero byte.
func cutAtNUL(v uint64) uint64 {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	if z := (v - lo) &^ v & hi; z != 0 {
		v &= 1<<(bits.TrailingZeros64(z)&^7) - 1
	}
	return v
}

// mixWord is splitmix64's finalizer: a bijection on uint64 (each step,
// an xor with a right shift of itself or a multiply by an odd constant,
// is invertible) that spreads every input bit over the whole word, so
// the top six bits that pick a shard and the bits from the seventh up
// that pick a bucket are as good as Hash64's.
func mixWord(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
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

// Hash returns the hash of the j-th key of the last EncodeBlock call:
// the word hash of a one-integer key, Hash64 of any other (key.go).
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
