package expr

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// FuzzLikeMatch checks the compiled LIKE matcher's segment fast path
// against likeGeneral, the reference backtracking matcher: for any
// pattern the two must agree on any input. (Patterns containing '_'
// take the general path directly, so the assertion is vacuous there but
// still guards against panics.)
func FuzzLikeMatch(f *testing.F) {
	seeds := [][2]string{
		{"%special%requests%", "the special set of requests"},
		{"%special%requests%", "nothing to see"},
		{"%ab", "abxab"}, // final segment occurs twice; only the last is end-anchored
		{"a%b", "ab"},
		{"a%b", "axxb"},
		{"", ""},
		{"%", "anything"},
		{"%%", ""},
		{"a_c", "abc"},
		{"_%_", "xy"},
		{"ab", "ab"},
		{"%aa%aa", "aaa"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, pattern, s string) {
		got := NewLike(nil, pattern, false).Match(s)
		want := likeGeneral(s, pattern)
		if got != want {
			t.Fatalf("Match(%q, %q) = %v, likeGeneral = %v", pattern, s, got, want)
		}
	})
}

// FuzzKeyEncoder checks the invariants the hash join, aggregation and
// repartitioning layers rely on: encoding is deterministic, Hash is
// exactly Hash64 over the encoded key, the batch encoder produces the
// same key and hash, null is distinguishable from any value, and -0.0
// keys equal +0.0 keys.
func FuzzKeyEncoder(f *testing.F) {
	f.Add(int64(0), 0.0)
	f.Add(int64(-1), math.Inf(1))
	f.Add(int64(600036), 123.456)
	f.Add(int64(math.MinInt64), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, i int64, fv float64) {
		sch := types.NewSchema(
			types.Col("a", types.Int64),
			types.Col("b", types.Float64),
		)
		rec := make([]byte, sch.Stride())
		types.PutValue(rec, sch, 0, types.IntVal(i))
		types.PutValue(rec, sch, 1, types.FloatVal(fv))

		enc := NewKeyEncoder([]Expr{NewCol(0, "a"), NewCol(1, "b")})
		key := append([]byte(nil), enc.Encode(rec, sch)...)
		if again := enc.Encode(rec, sch); !bytes.Equal(key, again) {
			t.Fatalf("Encode not deterministic: %x then %x", key, again)
		}
		if h, want := enc.Hash(rec, sch), Hash64(key); h != want {
			t.Fatalf("Hash = %#x, Hash64(Encode) = %#x", h, want)
		}
		blk := block.New(sch, sch.Stride(), nil)
		blk.AppendRow(rec)
		benc := NewBatchKeyEncoder(enc.Exprs, sch)
		benc.EncodeBlock(blk, nil)
		if !bytes.Equal(benc.Key(0), key) || benc.Hash(0) != enc.Hash(rec, sch) {
			t.Fatalf("batch key %x hash %#x, row key %x hash %#x",
				benc.Key(0), benc.Hash(0), key, enc.Hash(rec, sch))
		}

		// Equal floats must produce equal keys even across the two zeros.
		if fv == 0 {
			neg := make([]byte, sch.Stride())
			types.PutValue(neg, sch, 0, types.IntVal(i))
			types.PutValue(neg, sch, 1, types.FloatVal(math.Copysign(0, -1)))
			if !bytes.Equal(key, append([]byte(nil), enc.Encode(neg, sch)...)) {
				t.Fatal("-0.0 and +0.0 encode to different keys")
			}
		}

		// Expression-level nulls (records themselves have no null bitmap)
		// must encode distinctly from any value of the same kind.
		if bytes.Equal(appendValue(nil, types.NullVal(types.Int64)), appendValue(nil, types.IntVal(i))) {
			t.Fatal("null key collides with non-null key")
		}
	})
}
