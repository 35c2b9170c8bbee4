package main

import (
	"math"

	"repro/internal/engine"
	"repro/internal/types"
)

// check is a reply's order-insensitive checksum: the row count, the
// wrapping sum of every integer, date and (hashed) string value, and
// the sum of every float value. Sums rather than a hash of the rows
// because float aggregates differ in their last bits with the order
// partial results were merged in, which elastic execution does not fix;
// floats are therefore compared with a relative tolerance.
type check struct {
	rows int64
	isum int64
	fsum float64
}

func (c *check) addRow(vals []types.Value) {
	c.rows++
	for _, v := range vals {
		switch {
		case v.Null:
			c.isum++
		case v.Kind == types.Float64:
			c.fsum += v.F
		case v.Kind == types.String:
			c.isum += hashString(v.S)
		default: // Int64, Date
			c.isum += v.I
		}
	}
}

// hashString is FNV-1a, inlined so checking a reply allocates nothing.
func hashString(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}

// floatTol is the relative tolerance on float sums: summation-order
// noise is ~1e-13 of the total, a wrong or missing row is far above 1e-9.
const floatTol = 1e-9

func (c check) matches(want check) bool {
	if c.rows != want.rows || c.isum != want.isum {
		return false
	}
	return math.Abs(c.fsum-want.fsum) <= floatTol*math.Max(1, math.Abs(want.fsum))
}

// checkOf checksums an in-process result.
func checkOf(res *engine.Result) check {
	var c check
	vals := make([]types.Value, res.Schema.NumCols())
	for _, b := range res.Blocks {
		for i := 0; i < b.NumTuples(); i++ {
			for j := range vals {
				vals[j] = b.Get(i, j)
			}
			c.addRow(vals)
		}
	}
	return c
}
