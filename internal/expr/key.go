package expr

import (
	"encoding/binary"
	"math"

	"repro/internal/types"
)

// Key extraction shared by hash join, hash aggregation and hash
// repartitioning: a list of expressions is evaluated over a record and
// encoded into a compact byte key. Equal tuples produce identical keys,
// and one hash of the key drives table placement at load, partition
// routing and hash-table placement, so co-partitioned tables route
// identically.
//
// The hash has one rule. A key of exactly one value that is a non-NULL
// Int64 or Date hashes to mixWord of the integer; every other key —
// NULL, Float64, CHAR, composite or empty — hashes to Hash64 of its
// encoding. The rule reads the value, not the expression that made it,
// so a column, a fused kernel and a row-at-a-time Eval yielding the same
// integer hash alike, and both sides of a join agree with no plan-time
// check.

// KeyEncoder encodes the values of Exprs over records into reusable key
// buffers. Not safe for concurrent use; each worker owns one.
type KeyEncoder struct {
	Exprs []Expr
	buf   []byte
}

// NewKeyEncoder builds an encoder over the given key expressions.
func NewKeyEncoder(exprs []Expr) *KeyEncoder {
	return &KeyEncoder{Exprs: exprs, buf: make([]byte, 0, 64)}
}

// Encode evaluates the key expressions over rec and returns the encoded
// key. The returned slice is valid until the next Encode call.
func (k *KeyEncoder) Encode(rec []byte, sch *types.Schema) []byte {
	k.buf = k.buf[:0]
	for _, e := range k.Exprs {
		v := e.Eval(rec, sch)
		k.buf = appendValue(k.buf, v)
	}
	return k.buf
}

// Hash returns the hash of the key for rec: the word hash of a
// one-integer key, Hash64 of the encoded key otherwise.
func (k *KeyEncoder) Hash(rec []byte, sch *types.Schema) uint64 {
	if len(k.Exprs) != 1 {
		return Hash64(k.Encode(rec, sch))
	}
	v := k.Exprs[0].Eval(rec, sch)
	if isWordValue(v) {
		return mixWord(uint64(v.I))
	}
	k.buf = appendValue(k.buf[:0], v)
	return Hash64(k.buf)
}

// isWordValue reports whether v, as a key's only value, hashes by its
// word: a non-NULL Int64 or Date.
func isWordValue(v types.Value) bool {
	return !v.Null && (v.Kind == types.Int64 || v.Kind == types.Date)
}

func appendValue(buf []byte, v types.Value) []byte {
	if v.Null {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	switch v.Kind {
	case types.Int64, types.Date:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(v.I))
		return append(buf, tmp[:]...)
	case types.Float64:
		var tmp [8]byte
		// Normalize -0.0 to +0.0 so equal floats hash equally.
		f := v.F
		if f == 0 {
			f = 0
		}
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
		return append(buf, tmp[:]...)
	case types.String:
		buf = append(buf, v.S...)
		return append(buf, 0xFF) // terminator disambiguates concatenations
	}
	return buf
}

// Hash64 is FNV-1a over b.
func Hash64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
