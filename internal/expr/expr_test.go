package expr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

var testSch = types.NewSchema(
	types.Col("a", types.Int64),
	types.Col("b", types.Float64),
	types.Char("s", 16),
	types.Col("d", types.Date),
)

func testRec(a int64, b float64, s string, d string) []byte {
	rec := make([]byte, testSch.Stride())
	types.PutValue(rec, testSch, 0, types.IntVal(a))
	types.PutValue(rec, testSch, 1, types.FloatVal(b))
	types.PutValue(rec, testSch, 2, types.StrVal(s))
	types.PutValue(rec, testSch, 3, types.DateVal(types.MustParseDate(d)))
	return rec
}

func TestArith(t *testing.T) {
	rec := testRec(10, 2.5, "x", "2010-10-30")
	cases := []struct {
		e    Expr
		want types.Value
	}{
		{NewArith(Add, NewCol(0, "a"), NewConst(types.IntVal(5))), types.IntVal(15)},
		{NewArith(Sub, NewCol(0, "a"), NewConst(types.IntVal(3))), types.IntVal(7)},
		{NewArith(Mul, NewCol(0, "a"), NewCol(1, "b")), types.FloatVal(25)},
		{NewArith(Div, NewCol(0, "a"), NewConst(types.IntVal(4))), types.FloatVal(2.5)},
		{NewArith(Sub, NewCol(3, "d"), NewConst(types.IntVal(1))),
			types.DateVal(types.MustParseDate("2010-10-29"))},
	}
	for _, c := range cases {
		got := c.e.Eval(rec, testSch)
		if got.Compare(c.want) != 0 {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestDivByZeroIsNull(t *testing.T) {
	rec := testRec(1, 0, "", "1970-01-01")
	v := NewArith(Div, NewCol(0, "a"), NewCol(1, "b")).Eval(rec, testSch)
	if !v.Null {
		t.Fatalf("1/0 = %v, want NULL", v)
	}
}

func TestCmpAndLogic(t *testing.T) {
	rec := testRec(10, 2.5, "hello", "2010-10-30")
	tru := NewCmp(GT, NewCol(0, "a"), NewConst(types.IntVal(5)))
	fls := NewCmp(EQ, NewCol(2, "s"), NewConst(types.StrVal("world")))
	if !Truthy(tru.Eval(rec, testSch)) {
		t.Error("a > 5 should hold")
	}
	if Truthy(fls.Eval(rec, testSch)) {
		t.Error("s = world should not hold")
	}
	if Truthy(NewAnd(tru, fls).Eval(rec, testSch)) {
		t.Error("AND failed")
	}
	if !Truthy(NewOr(fls, tru).Eval(rec, testSch)) {
		t.Error("OR failed")
	}
	if Truthy(NewNot(tru).Eval(rec, testSch)) {
		t.Error("NOT failed")
	}
}

func TestAndFlattening(t *testing.T) {
	a := NewCmp(GT, NewCol(0, "a"), NewConst(types.IntVal(1)))
	nested := NewAnd(NewAnd(a, a), a)
	and, ok := nested.(*And)
	if !ok || len(and.Terms) != 3 {
		t.Fatalf("NewAnd did not flatten: %v", nested)
	}
	if NewAnd(a) != a {
		t.Fatal("single-term AND should collapse")
	}
}

func TestBetweenIn(t *testing.T) {
	rec := testRec(7, 0, "FOB", "1994-06-15")
	bt := NewBetween(NewCol(3, "d"),
		NewConst(types.DateVal(types.MustParseDate("1994-01-01"))),
		NewConst(types.DateVal(types.MustParseDate("1994-12-31"))))
	if !Truthy(bt.Eval(rec, testSch)) {
		t.Error("BETWEEN failed")
	}
	in := NewIn(NewCol(2, "s"), []types.Value{
		types.StrVal("MAIL"), types.StrVal("FOB"),
	})
	if !Truthy(in.Eval(rec, testSch)) {
		t.Error("IN failed")
	}
	notIn := NewIn(NewCol(2, "s"), []types.Value{types.StrVal("AIR")})
	if Truthy(notIn.Eval(rec, testSch)) {
		t.Error("IN should not match")
	}
}

func TestCase(t *testing.T) {
	rec := testRec(10, 0, "PROMO ANODIZED", "1995-09-17")
	c := NewCase([]When{{
		Cond: NewLike(NewCol(2, "s"), "PROMO%", false),
		Then: NewCol(0, "a"),
	}}, NewConst(types.IntVal(0)))
	if got := c.Eval(rec, testSch); got.I != 10 {
		t.Errorf("CASE = %v", got)
	}
	rec2 := testRec(10, 0, "STANDARD", "1995-09-17")
	if got := c.Eval(rec2, testSch); got.I != 0 {
		t.Errorf("CASE else = %v", got)
	}
}

func TestExtract(t *testing.T) {
	rec := testRec(0, 0, "", "1996-03-13")
	if got := NewExtract(Year, NewCol(3, "d")).Eval(rec, testSch); got.I != 1996 {
		t.Errorf("EXTRACT(YEAR) = %v", got)
	}
	if got := NewExtract(Month, NewCol(3, "d")).Eval(rec, testSch); got.I != 3 {
		t.Errorf("EXTRACT(MONTH) = %v", got)
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello world", "%world", true},
		{"hello world", "hello%", true},
		{"hello world", "%lo wo%", true},
		{"hello world", "%xyz%", false},
		{"special requests", "%special%requests%", true},
		{"special requests deposits", "%special%deposits", true},
		{"abc", "abc", true},
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"abc", "%", true},
		{"", "%", true},
		{"", "", true},
		{"abc", "", false},
		{"aXbYc", "a%b%c", true},
		{"green apple", "%green%", true},
		{"ab", "a%b%c", false},
		{"mississippi", "%iss%ippi", true},
		{"prefix only", "prefix%", true},
		{"not prefix only", "prefix%", false},
	}
	for _, c := range cases {
		l := NewLike(NewCol(2, "s"), c.p, false)
		if got := l.Match(c.s); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestNotLike(t *testing.T) {
	rec := testRec(0, 0, "ordinary text", "1970-01-01")
	nl := NewLike(NewCol(2, "s"), "%special%requests%", true)
	if !Truthy(nl.Eval(rec, testSch)) {
		t.Error("NOT LIKE should hold")
	}
}

// Property: the segment fast path agrees with the general matcher on
// %-only patterns.
func TestLikeFastPathAgreesWithGeneral(t *testing.T) {
	f := func(s string, rawSegs []string) bool {
		if len(rawSegs) > 4 {
			rawSegs = rawSegs[:4]
		}
		p := "%"
		for _, seg := range rawSegs {
			clean := ""
			for _, r := range seg {
				if r != '%' && r != '_' && r < 128 {
					clean += string(r)
				}
			}
			p += clean + "%"
		}
		l := NewLike(nil, p, false)
		return l.Match(s) == likeGeneral(s, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyEncoder(t *testing.T) {
	enc := NewKeyEncoder([]Expr{NewCol(0, "a"), NewCol(2, "s")})
	r1 := testRec(5, 0, "alpha", "1970-01-01")
	r2 := testRec(5, 9, "alpha", "1999-01-01") // same key cols, different rest
	r3 := testRec(5, 0, "beta", "1970-01-01")

	k1 := string(enc.Encode(r1, testSch))
	k2 := string(enc.Encode(r2, testSch))
	k3 := string(enc.Encode(r3, testSch))
	if k1 != k2 {
		t.Error("equal key columns must encode equal")
	}
	if k1 == k3 {
		t.Error("different key columns must encode different")
	}
}

// Property: string keys never collide via concatenation ambiguity.
func TestKeyEncodingUnambiguous(t *testing.T) {
	sch := types.NewSchema(types.Char("x", 8), types.Char("y", 8))
	enc := NewKeyEncoder([]Expr{NewCol(0, "x"), NewCol(1, "y")})
	f := func(a, b, c, d string) bool {
		trim := func(s string) string {
			out := ""
			for _, r := range s {
				if r != 0 && r < 128 && len(out) < 8 {
					out += string(r)
				}
			}
			return out
		}
		a, b, c, d = trim(a), trim(b), trim(c), trim(d)
		mk := func(x, y string) string {
			rec := make([]byte, sch.Stride())
			types.PutValue(rec, sch, 0, types.StrVal(x))
			types.PutValue(rec, sch, 1, types.StrVal(y))
			return string(enc.Encode(rec, sch))
		}
		if a == c && b == d {
			return mk(a, b) == mk(c, d)
		}
		return mk(a, b) != mk(c, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHash64Distribution guards the bits callers take from a key's
// hash, Hash64 or the word hash of a one-integer key: h%n routes a tuple
// to one of n exchange destinations (h&63 is the route for n = 64),
// h>>58 (shardOf) picks the join or aggregation shard, and
// (h>>6)&(2^k-1) the join bucket inside the shard. Each key family must
// land within ±5 % of uniform on the routes and the shards and ±20 % on
// 1024 buckets. The word families are the integer keys the workload
// partitions and joins on: sequential keys (custkey, partkey), TPC-H
// order keys (8 of every 32) and keys that share their low ten bits.
func TestHash64Distribution(t *testing.T) {
	const n = 1_000_000
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]bool)
	var buf []byte
	// bytesHash hashes the key key appends, or reports false to skip i.
	bytesHash := func(key func(i int, buf []byte) []byte) func(i int) (uint64, bool) {
		return func(i int) (uint64, bool) {
			if buf = key(i, buf[:0]); buf == nil {
				return 0, false
			}
			return Hash64(buf), true
		}
	}
	// wordHash hashes one-integer keys, through the loader's KeyEncoder.
	intSch := types.NewSchema(types.Col("k", types.Int64))
	intRec, intKey := make([]byte, 8), NewKeyEncoder([]Expr{NewCol(0, "k")})
	wordHash := func(key func(i int) int64) func(i int) (uint64, bool) {
		return func(i int) (uint64, bool) {
			types.PutInt(intRec, 0, key(i))
			return intKey.Hash(intRec, intSch), true
		}
	}
	families := []struct {
		name string
		hash func(i int) (uint64, bool)
	}{
		{"sequential int", bytesHash(func(i int, buf []byte) []byte {
			return appendValue(buf, types.IntVal(int64(i+1)))
		})},
		{"two columns", bytesHash(func(i int, buf []byte) []byte {
			buf = appendValue(buf, types.IntVal(int64(i%1000)))
			return appendValue(buf, types.IntVal(int64(i/1000)))
		})},
		{"strings of 1-32 bytes", bytesHash(func(i int, buf []byte) []byte {
			var s [32]byte
			l := 1 + i%32
			for j := 0; j < l; j++ {
				s[j] = byte('a' + rng.Intn(26))
			}
			// Short random strings repeat; a repeated key says nothing
			// about the hash, so only distinct ones are counted.
			if l < 6 {
				if seen[string(s[:l])] {
					return nil
				}
				seen[string(s[:l])] = true
			}
			return appendValue(buf, types.StrVal(string(s[:l])))
		})},
		{"word: sequential int", wordHash(func(i int) int64 { return int64(i + 1) })},
		{"word: TPC-H order keys", wordHash(func(i int) int64 { return int64(i/8*32 + i%8 + 1) })},
		{"word: multiples of 1024", wordHash(func(i int) int64 { return int64(i) << 10 })},
	}
	for _, f := range families {
		var mod2 [2]int
		var mod3 [3]int
		var mod5 [5]int
		var mod6 [6]int
		var mod7 [7]int
		var mod64, shard [64]int
		var bucket [1024]int
		keys := 0
		for i := 0; i < n; i++ {
			h, ok := f.hash(i)
			if !ok {
				continue
			}
			keys++
			mod2[h%2]++
			mod3[h%3]++
			mod5[h%5]++
			mod6[h%6]++
			mod7[h%7]++
			mod64[h&63]++
			shard[h>>58]++
			bucket[(h>>6)&1023]++
		}
		check := func(what string, counts []int, tol float64) {
			want := float64(keys) / float64(len(counts))
			for b, c := range counts {
				if d := (float64(c) - want) / want; d < -tol || d > tol {
					t.Errorf("%s, %s: bucket %d holds %d keys, %.1f%% off the uniform %.0f",
						f.name, what, b, c, 100*d, want)
				}
			}
		}
		check("h%2", mod2[:], 0.05)
		check("h%3", mod3[:], 0.05)
		check("h%5", mod5[:], 0.05)
		check("h%6", mod6[:], 0.05)
		check("h%7", mod7[:], 0.05)
		check("h&63", mod64[:], 0.05)
		check("h>>58", shard[:], 0.05)
		check("(h>>6)&1023", bucket[:], 0.20)
	}
}

func TestStringWidth(t *testing.T) {
	s, a := NewCol(2, "s"), NewCol(0, "a")
	str := func(v string) Expr { return NewConst(types.StrVal(v)) }
	long := str("a literal longer than the sixteen-byte column")
	when := func(then Expr) When { return When{Cond: NewCmp(GT, a, NewConst(types.IntVal(0))), Then: then} }
	cases := []struct {
		e    Expr
		want int
	}{
		{s, 16},
		{str("abc"), 3},
		{str(""), 1}, // no column is narrower than a byte
		{long, 45},
		{NewCase([]When{when(s)}, long), 45},
		{NewCase([]When{when(str("ab")), when(s)}, str("xyz")), 16},
		{NewCase([]When{when(str("ab"))}, nil), 2},                       // no ELSE: NULL, stored as ""
		{NewCase([]When{when(str("ab"))}, NewParam(1)), 2},               // an untyped slot is an integer
		{NewCase([]When{when(str("ab"))}, NewConst(types.IntVal(7))), 2}, // so is what substitutes it
		{&Param{N: 1, K: types.String, Typed: true}, defaultStringWidth},
	}
	for _, c := range cases {
		if got := StringWidth(c.e, testSch); got != c.want {
			t.Errorf("StringWidth(%s) = %d, want %d", c.e, got, c.want)
		}
	}
}

func BenchmarkLikeMatcher(b *testing.B) {
	l := NewLike(nil, "%special%requests%", false)
	s := "the quick brown fox handles special delivery requests gracefully"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !l.Match(s) {
			b.Fatal("should match")
		}
	}
}

func BenchmarkKeyEncoderHash(b *testing.B) {
	enc := NewKeyEncoder([]Expr{NewCol(0, "a"), NewCol(2, "s")})
	rec := testRec(42, 1.5, "hello world", "2010-10-30")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.Hash(rec, testSch)
	}
}
