package types

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSchemaLayout(t *testing.T) {
	s := NewSchema(Col("a", Int64), Char("b", 10), Col("c", Float64), Col("d", Date))
	if got := s.Stride(); got != 8+10+8+8 {
		t.Fatalf("stride = %d, want 34", got)
	}
	wantOff := []int{0, 8, 18, 26}
	for i, w := range wantOff {
		if s.Offset(i) != w {
			t.Errorf("offset(%d) = %d, want %d", i, s.Offset(i), w)
		}
	}
	if s.ColIndex("C") != 2 {
		t.Errorf("ColIndex case-insensitive lookup failed")
	}
	if s.ColIndex("missing") != -1 {
		t.Errorf("ColIndex(missing) should be -1")
	}
}

func TestQualifiedColIndex(t *testing.T) {
	s := NewSchema(Col("t.acct_id", Int64), Col("s.acct_id", Int64))
	if got := s.ColIndex("t.acct_id"); got != 0 {
		t.Fatalf("qualified lookup = %d, want 0", got)
	}
	// Bare name matches the first qualified column that has that suffix.
	if got := s.ColIndex("acct_id"); got != 0 {
		t.Fatalf("bare lookup = %d, want 0", got)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	s := NewSchema(Col("i", Int64), Col("f", Float64), Char("s", 12), Col("d", Date))
	rec := make([]byte, s.Stride())
	PutValue(rec, s, 0, IntVal(-42))
	PutValue(rec, s, 1, FloatVal(3.5))
	PutValue(rec, s, 2, StrVal("hello"))
	PutValue(rec, s, 3, DateVal(MustParseDate("2010-10-30")))

	if v := GetValue(rec, s, 0); v.I != -42 {
		t.Errorf("int round trip = %v", v)
	}
	if v := GetValue(rec, s, 1); v.F != 3.5 {
		t.Errorf("float round trip = %v", v)
	}
	if v := GetValue(rec, s, 2); v.S != "hello" {
		t.Errorf("string round trip = %q", v.S)
	}
	if v := GetValue(rec, s, 3); FormatDate(v.I) != "2010-10-30" {
		t.Errorf("date round trip = %v", v)
	}
}

func TestStringTruncationAndPadding(t *testing.T) {
	s := NewSchema(Char("s", 4))
	rec := make([]byte, s.Stride())
	PutString(rec, 0, 4, "abcdef")
	if got := GetString(rec, 0, 4); got != "abcd" {
		t.Errorf("truncate = %q", got)
	}
	PutString(rec, 0, 4, "x")
	if got := GetString(rec, 0, 4); got != "x" {
		t.Errorf("pad = %q", got)
	}
	// Both of GetStringBytes' scans: the byte loop up to shortString, the
	// vector search above it, each with the field full, partly and not
	// at all filled.
	for width := 1; width <= shortString+2; width++ {
		rec := make([]byte, width+2)
		for _, v := range []string{"", "a", "abcdef"[:width], "abcdefgh"} {
			PutString(rec, 1, width, v)
			want := v[:min(len(v), width)]
			if got := string(GetStringBytes(rec, 1, width)); got != want {
				t.Errorf("GetStringBytes(CHAR(%d) holding %q) = %q, want %q", width, v, got, want)
			}
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntVal(1), IntVal(2), -1},
		{IntVal(2), IntVal(2), 0},
		{FloatVal(1.5), IntVal(1), 1},
		{IntVal(1), FloatVal(1.0), 0},
		{StrVal("a"), StrVal("b"), -1},
		{NullVal(Int64), IntVal(0), -1},
		{NullVal(Int64), NullVal(String), 0},
		{DateVal(10), DateVal(9), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDateAgainstStdlib(t *testing.T) {
	// Cross-check the civil-date conversions against time.Time over a
	// wide range including leap years and century boundaries.
	for _, s := range []string{
		"1970-01-01", "1992-02-29", "1998-12-01", "2000-02-29",
		"2010-10-30", "1900-03-01", "2100-01-01", "1969-12-31",
	} {
		tm, err := time.Parse("2006-01-02", s)
		if err != nil {
			t.Fatal(err)
		}
		want := tm.Unix() / 86400
		if tm.Unix() < 0 && tm.Unix()%86400 != 0 {
			want--
		}
		got := MustParseDate(s)
		if got != want {
			t.Errorf("ParseDate(%s) = %d, want %d", s, got, want)
		}
		if back := FormatDate(got); back != s {
			t.Errorf("FormatDate(%d) = %s, want %s", got, back, s)
		}
	}
}

func TestDateRoundTripProperty(t *testing.T) {
	f := func(n int32) bool {
		days := int64(n % 100000) // ± ~270 years around the epoch
		y, m, d := CivilFromDays(days)
		return DaysFromCivil(y, m, d) == days
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddMonths(t *testing.T) {
	cases := []struct {
		in   string
		n    int
		want string
	}{
		{"1998-12-01", -3, "1998-09-01"},
		{"1995-01-31", 1, "1995-02-28"},
		{"1996-01-31", 1, "1996-02-29"},
		{"1994-01-01", 12, "1995-01-01"},
		{"1995-03-15", -12, "1994-03-15"},
	}
	for _, c := range cases {
		got := FormatDate(AddMonths(MustParseDate(c.in), c.n))
		if got != c.want {
			t.Errorf("AddMonths(%s,%d) = %s, want %s", c.in, c.n, got, c.want)
		}
	}
}

func TestYearMonthOf(t *testing.T) {
	d := MustParseDate("1995-09-17")
	if YearOf(d) != 1995 || MonthOf(d) != 9 {
		t.Errorf("YearOf/MonthOf = %d/%d", YearOf(d), MonthOf(d))
	}
}

var sinkLen int

// BenchmarkGetStringBytes reads a fixed-width string column over 1024
// rows, at the widths and fills of the TPC-H columns the key encoders
// and string predicates see most: l_returnflag CHAR(1), p_brand
// CHAR(10) ("Brand#13"), p_type VARCHAR(25) and c_comment
// VARCHAR(117), whose values end anywhere in the field.
func BenchmarkGetStringBytes(b *testing.B) {
	const rows = 1024
	for _, c := range []struct {
		name        string
		width, fill int // fill: every value's length; 0: lengths cycle from width/3 to width
	}{
		{"char1", 1, 1},
		{"char10", 10, 8},
		{"varchar25", 25, 0},
		{"varchar117", 117, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			sch := NewSchema(Col("k", Int64), Char("s", c.width))
			st, off := sch.Stride(), sch.Offset(1)
			buf := make([]byte, rows*st)
			text := make([]byte, c.width)
			for i := range text {
				text[i] = 'a' + byte(i%26)
			}
			for r := 0; r < rows; r++ {
				n := c.fill
				if n == 0 {
					n = c.width/3 + r%(c.width-c.width/3+1)
				}
				PutString(buf[r*st:], off, c.width, string(text[:n]))
			}
			b.SetBytes(int64(rows * c.width))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				for r := 0; r < rows; r++ {
					n += len(GetStringBytes(buf[r*st:], off, c.width))
				}
				sinkLen = n
			}
		})
	}
}
