// Package types defines the value model of the engine: column kinds,
// schemas with fixed-width columns, and the scalar Value used by the
// expression evaluator.
//
// Every column has a fixed byte width, so a 64 KB data block holds a
// predictable number of tuples and field access is a constant offset
// computation — the layout the paper assumes for its block-at-a-time
// processing (Section 2.1). A schema also lays its columns out as a
// record, the row-at-a-time form (Offset, Stride): Eval reads one, and
// operators that keep rows of their own (join pages, sort, spill
// staging) store them so. A block stores each column contiguously
// instead (package block).
package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Kind enumerates the column types supported by the engine.
type Kind uint8

const (
	// Int64 is a signed 64-bit integer column.
	Int64 Kind = iota
	// Float64 is a 64-bit IEEE floating point column.
	Float64
	// String is a fixed-width character column (CHAR(n) semantics,
	// space-insensitive on trailing NULs).
	String
	// Date is a calendar date stored as days since 1970-01-01.
	Date
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "CHAR"
	case Date:
		return "DATE"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Numeric reports whether the kind participates in arithmetic.
func (k Kind) Numeric() bool { return k == Int64 || k == Float64 }

// Column describes a single column of a schema.
type Column struct {
	Name string
	Kind Kind
	// Width is the byte width of the column within a record. It is 8 for
	// Int64, Float64 and Date; for String it is the fixed character
	// capacity and must be set explicitly.
	Width int
}

// Col is a convenience constructor for fixed-width (non-string) columns.
func Col(name string, kind Kind) Column {
	return Column{Name: name, Kind: kind, Width: 8}
}

// Char is a convenience constructor for fixed-width string columns.
func Char(name string, width int) Column {
	return Column{Name: name, Kind: String, Width: width}
}

// Schema is an ordered set of columns with a precomputed record layout.
type Schema struct {
	Cols    []Column
	offsets []int
	stride  int
}

// NewSchema builds a schema and computes the record layout. String
// columns must carry an explicit positive width; numeric and date columns
// are normalized to 8 bytes.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Cols: cols, offsets: make([]int, len(cols))}
	off := 0
	for i, c := range cols {
		if c.Kind != String {
			c.Width = 8
			s.Cols[i].Width = 8
		}
		if c.Width <= 0 {
			panic(fmt.Sprintf("types: column %q has non-positive width", c.Name))
		}
		s.offsets[i] = off
		off += c.Width
	}
	s.stride = off
	return s
}

// Stride returns the byte length of one record: the sum of the column
// widths.
func (s *Schema) Stride() int { return s.stride }

// Offset returns the byte offset of column i within a record: the sum
// of the widths of the columns before it.
func (s *Schema) Offset(i int) int { return s.offsets[i] }

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.Cols) }

// ColIndex returns the index of the named column, or -1. Name matching is
// case-insensitive and accepts both bare and qualified ("t.col") names.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
		if dot := strings.LastIndexByte(c.Name, '.'); dot >= 0 &&
			strings.EqualFold(c.Name[dot+1:], name) {
			return i
		}
	}
	return -1
}

// Concat returns a schema holding this schema's columns followed by o's.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Cols)+len(o.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, o.Cols...)
	return NewSchema(cols...)
}

// Project returns a schema holding the selected columns, renamed if names
// is non-nil.
func (s *Schema) Project(idxs []int, names []string) *Schema {
	cols := make([]Column, len(idxs))
	for i, idx := range idxs {
		cols[i] = s.Cols[idx]
		if names != nil && names[i] != "" {
			cols[i].Name = names[i]
		}
	}
	return NewSchema(cols...)
}

// Value is the scalar produced by expression evaluation: a small tagged
// union. Strings reference the originating buffer where possible, so a
// Value must not outlive the row it was read from unless copied.
type Value struct {
	Kind Kind
	Null bool
	I    int64 // Int64 and Date payload
	F    float64
	S    string
}

// IntVal wraps an int64.
func IntVal(v int64) Value { return Value{Kind: Int64, I: v} }

// FloatVal wraps a float64.
func FloatVal(v float64) Value { return Value{Kind: Float64, F: v} }

// StrVal wraps a string.
func StrVal(v string) Value { return Value{Kind: String, S: v} }

// DateVal wraps an epoch-day count as a date.
func DateVal(days int64) Value { return Value{Kind: Date, I: days} }

// NullVal returns the NULL of the given kind.
func NullVal(k Kind) Value { return Value{Kind: k, Null: true} }

// AsFloat coerces a numeric or date value to float64.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case Float64:
		return v.F
	case Int64, Date:
		return float64(v.I)
	}
	return math.NaN()
}

// AsInt coerces a numeric or date value to int64 (truncating floats).
func (v Value) AsInt() int64 {
	switch v.Kind {
	case Float64:
		return int64(v.F)
	case Int64, Date:
		return v.I
	}
	return 0
}

// Compare orders two values: -1, 0 or +1. Numeric kinds compare by value
// across Int64/Float64/Date; strings compare lexicographically. NULLs sort
// before all non-NULLs and equal to each other.
func (v Value) Compare(o Value) int {
	if v.Null || o.Null {
		switch {
		case v.Null && o.Null:
			return 0
		case v.Null:
			return -1
		default:
			return 1
		}
	}
	if v.Kind == String || o.Kind == String {
		return strings.Compare(v.S, o.S)
	}
	if v.Kind == Float64 || o.Kind == Float64 {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	switch {
	case v.I < o.I:
		return -1
	case v.I > o.I:
		return 1
	default:
		return 0
	}
}

// String renders the value for display.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case Int64:
		return fmt.Sprintf("%d", v.I)
	case Float64:
		return fmt.Sprintf("%.2f", v.F)
	case String:
		return v.S
	case Date:
		return FormatDate(v.I)
	}
	return "?"
}

// --- record field codecs -------------------------------------------------

// GetInt reads an Int64/Date field at offset off of record rec.
func GetInt(rec []byte, off int) int64 {
	return int64(binary.LittleEndian.Uint64(rec[off:]))
}

// PutInt writes an Int64/Date field.
func PutInt(rec []byte, off int, v int64) {
	binary.LittleEndian.PutUint64(rec[off:], uint64(v))
}

// GetFloat reads a Float64 field.
func GetFloat(rec []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(rec[off:]))
}

// PutFloat writes a Float64 field.
func PutFloat(rec []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(rec[off:], math.Float64bits(v))
}

// GetString reads a fixed-width string field, trimming NUL padding.
func GetString(rec []byte, off, width int) string {
	b := rec[off : off+width]
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

// shortString is the widest string field GetStringBytes scans with a
// plain byte loop. Up to it the call into bytes.IndexByte costs more
// than the scan (CHAR(1): 4.0 against 5.5 ns a row on a 2-vCPU Xeon);
// from CHAR(4) on the vector search wins, 3.5x on VARCHAR(117). Mind
// the loop's shape: written as a range over b, it cost VARCHAR(117)
// about 7 % whichever branch came first; this one costs it nothing.
const shortString = 2

// GetStringBytes reads a fixed-width string field as a byte-slice view
// into the record, trimming NUL padding. Unlike GetString it performs no
// allocation; batch kernels (LIKE, comparisons, key encoding) use it to
// stay allocation-free per tuple. The view must not outlive the record.
func GetStringBytes(rec []byte, off, width int) []byte {
	b := rec[off : off+width]
	if width > shortString {
		if i := bytes.IndexByte(b, 0); i >= 0 {
			return b[:i]
		}
		return b
	}
	n := 0
	for n < width && b[n] != 0 {
		n++
	}
	return b[:n]
}

// PutString writes a fixed-width string field, truncating or NUL-padding.
func PutString(rec []byte, off, width int, v string) {
	b := rec[off : off+width]
	n := copy(b, v)
	for i := n; i < width; i++ {
		b[i] = 0
	}
}

// GetValue reads column col of record rec under schema s.
func GetValue(rec []byte, s *Schema, col int) Value {
	c := s.Cols[col]
	off := s.offsets[col]
	switch c.Kind {
	case Int64:
		return IntVal(GetInt(rec, off))
	case Float64:
		return FloatVal(GetFloat(rec, off))
	case Date:
		return DateVal(GetInt(rec, off))
	case String:
		return StrVal(GetString(rec, off, c.Width))
	}
	panic("types: unknown kind")
}

// PutValue writes v into column col of record rec under schema s,
// coercing between numeric kinds as needed.
func PutValue(rec []byte, s *Schema, col int, v Value) {
	c := s.Cols[col]
	off := s.offsets[col]
	switch c.Kind {
	case Int64, Date:
		PutInt(rec, off, v.AsInt())
	case Float64:
		PutFloat(rec, off, v.AsFloat())
	case String:
		PutString(rec, off, c.Width, v.S)
	}
}

// GetField is GetValue for a value of column c stored at offset off of
// buf: a slot of a block's column. GetValue and PutValue keep switches
// of their own: the loaders call them once per field, and routing them
// through these made an SF 0.05 TPC-H load about 30 ms (of 230) slower
// on a 2-vCPU host.
func GetField(buf []byte, off int, c Column) Value {
	switch c.Kind {
	case Int64:
		return IntVal(GetInt(buf, off))
	case Float64:
		return FloatVal(GetFloat(buf, off))
	case Date:
		return DateVal(GetInt(buf, off))
	case String:
		return StrVal(GetString(buf, off, c.Width))
	}
	panic("types: unknown kind")
}

// PutField is PutValue for a value of column c at offset off of buf.
func PutField(buf []byte, off int, c Column, v Value) {
	switch c.Kind {
	case Int64, Date:
		PutInt(buf, off, v.AsInt())
	case Float64:
		PutFloat(buf, off, v.AsFloat())
	case String:
		PutString(buf, off, c.Width, v.S)
	}
}
