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

// FuzzKeyEncoder checks the invariants the loader, hash join,
// aggregation and repartitioning layers rely on: encoding is
// deterministic, a composite key's Hash is exactly Hash64 over the
// encoded key, the batch encoder produces the same key and hash, null is
// distinguishable from any value, and -0.0 keys equal +0.0 keys. For a
// key of one value the row and batch encoders hash by the same rule: a
// non-NULL integer by its word — whether a column, a fused kernel or a
// row-at-a-time CASE made it — and NULL by Hash64 of its encoding.
func FuzzKeyEncoder(f *testing.F) {
	f.Add(int64(0), 0.0)
	f.Add(int64(-1), math.Inf(1))
	f.Add(int64(600036), 123.456)
	f.Add(int64(math.MinInt64), math.Copysign(0, -1))
	f.Add(int64(42), -2.5)
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
		// HashValues, which places rows at load and prunes scans, agrees
		// with the hash Senders route by.
		if h, want := HashValues([]types.Value{types.IntVal(i), types.FloatVal(fv)}), enc.Hash(rec, sch); h != want {
			t.Fatalf("HashValues = %#x, Hash = %#x", h, want)
		}
		one := NewKeyEncoder([]Expr{NewCol(1, "b")})
		if h, want := HashValues([]types.Value{types.FloatVal(fv)}), one.Hash(rec, sch); h != want {
			t.Fatalf("one float: HashValues = %#x, Hash = %#x", h, want)
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

		// One-value keys: the column, a fused kernel yielding the same
		// integer, and a CASE that yields it when b > 0 and NULL
		// otherwise (the row fallback, unless it fuses).
		a, b := NewCol(0, "a"), NewCol(1, "b")
		plus0 := NewArith(Add, a, NewConst(types.IntVal(0)))
		orNull := NewCase([]When{{Cond: NewCmp(GT, b, NewConst(types.FloatVal(0))), Then: a}}, nil)
		for _, key := range []Expr{a, plus0, orNull} {
			want := mixWord(uint64(i))
			if key == orNull && !(fv > 0) {
				want = Hash64([]byte{0})
			}
			keys := []Expr{key}
			if key == plus0 && !NewBatchKeyEncoder(keys, sch).Vectorized() {
				t.Fatalf("%v does not compile to a fused kernel", key)
			}
			if h := NewKeyEncoder(keys).Hash(rec, sch); h != want {
				t.Fatalf("%v: row Hash = %#x, want %#x", key, h, want)
			}
			for _, benc := range []*BatchKeyEncoder{NewBatchKeyEncoder(keys, sch), NewBatchKeyEncoder(keys, sch).WithKeys()} {
				benc.EncodeBlock(blk, nil)
				if h := benc.Hash(0); h != want {
					t.Fatalf("%v (word %v): batch Hash = %#x, want %#x", key, benc.Word(), h, want)
				}
			}
		}
	})
}

// FuzzWordKey checks the aggregation's word key against the general
// encoding: for keys that pack into one word — two CHAR columns whose
// widths sum to at most 8, or one Int64 column — two rows get equal
// hashes exactly when their general encodings are equal, whatever
// bytes follow a NUL in a CHAR field. A key one byte too wide for a
// word keeps the general encoding and Hash64.
func FuzzWordKey(f *testing.F) {
	f.Add("", "A", "A", "", uint8(3), uint8(5), int64(-1), int64(1))
	f.Add("A\x00x", "b", "A\x00y", "b", uint8(3), uint8(5), int64(math.MinInt64), int64(math.MinInt64))
	f.Add("\x00Z", "\x00", "", "", uint8(2), uint8(2), int64(0), int64(0))
	f.Add("abcd", "efgh", "abcd", "efgi", uint8(4), uint8(4), int64(math.MaxInt64), int64(math.MinInt64))
	f.Add("R", "F", "R", "F\x00\x01", uint8(1), uint8(1), int64(-5), int64(5))
	f.Fuzz(func(t *testing.T, a0, b0, a1, b1 string, wa, wb uint8, n0, n1 int64) {
		w1 := 1 + int(wa)%7      // 1..7
		w2 := 1 + int(wb)%(8-w1) // 1..8-w1: the pair fits in a word
		// b is last, so the record ends less than 8 bytes after it starts
		// and the encoder reads it byte by byte; a is read with one load.
		sch := types.NewSchema(types.Char("a", w1), types.Col("n", types.Int64),
			types.Char("c", 9-w1), types.Char("b", w2))
		blk := block.New(sch, 2*sch.Stride(), nil)
		for _, r := range [][]any{{a0, b0, n0}, {a1, b1, n1}} {
			rec := blk.AppendRowTo()
			clear(rec)
			types.PutString(rec, sch.Offset(0), w1, r[0].(string))
			types.PutInt(rec, sch.Offset(1), r[2].(int64))
			types.PutString(rec, sch.Offset(2), 9-w1, r[1].(string))
			types.PutString(rec, sch.Offset(3), w2, r[1].(string))
		}
		a, n, c, b := NewCol(0, "a"), NewCol(1, "n"), NewCol(2, "c"), NewCol(3, "b")
		for _, keys := range [][]Expr{{a, b}, {b, a}, {n}, {a}} {
			general, word := NewBatchKeyEncoder(keys, sch).WithKeys(), NewGroupKeyEncoder(keys, sch)
			if !word.Word() {
				t.Fatalf("keys %v (widths %d, %d) do not make a word key", keys, w1, w2)
			}
			general.EncodeBlock(blk, nil)
			word.EncodeBlock(blk, nil)
			sameKey := bytes.Equal(general.Key(0), general.Key(1))
			if sameHash := word.Hash(0) == word.Hash(1); sameKey != sameHash {
				t.Fatalf("keys %v: general keys %x, %x (equal %v), word hashes %#x, %#x",
					keys, general.Key(0), general.Key(1), sameKey, word.Hash(0), word.Hash(1))
			}
		}
		// a + c is 9 bytes wide: the general encoding, byte for byte.
		wide := []Expr{a, c}
		general, group := NewBatchKeyEncoder(wide, sch).WithKeys(), NewGroupKeyEncoder(wide, sch)
		if group.Word() {
			t.Fatalf("a 9-byte key makes a word key")
		}
		general.EncodeBlock(blk, nil)
		group.EncodeBlock(blk, nil)
		for j := 0; j < 2; j++ {
			if !bytes.Equal(group.Key(j), general.Key(j)) || group.Hash(j) != general.Hash(j) {
				t.Fatalf("row %d: group encoder %x/%#x, general %x/%#x",
					j, group.Key(j), group.Hash(j), general.Key(j), general.Hash(j))
			}
		}
	})
}
