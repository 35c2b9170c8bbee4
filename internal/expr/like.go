package expr

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/types"
)

// Like implements SQL LIKE / NOT LIKE against a pre-compiled pattern.
// Patterns support '%' (any run) and '_' (any single byte). The matcher
// is allocation-free per row: S-Q1 in the paper uses a double-wildcard
// NOT LIKE as its compute-intensive workload, so this path is hot.
type Like struct {
	E       Expr
	Pattern string
	Negate  bool

	segs     []string // literal segments between %s
	segsB    [][]byte // segs as bytes, for the allocation-free matcher
	leadPct  bool     // pattern starts with %
	trailPct bool     // pattern ends with %
	hasUnder bool     // pattern contains _, forcing the general matcher
	patternB []byte   // pattern bytes, for the general byte matcher
	// contains: the pattern is %…% with no _ and no NUL, so a CHAR field
	// matches in place (matchField).
	contains bool
}

// NewLike compiles a LIKE pattern.
func NewLike(e Expr, pattern string, negate bool) *Like {
	l := &Like{E: e, Pattern: pattern, Negate: negate}
	l.hasUnder = strings.ContainsRune(pattern, '_')
	if !l.hasUnder {
		l.leadPct = strings.HasPrefix(pattern, "%")
		l.trailPct = strings.HasSuffix(pattern, "%")
		for _, s := range strings.Split(pattern, "%") {
			if s != "" {
				l.segs = append(l.segs, s)
				l.segsB = append(l.segsB, []byte(s))
			}
		}
	}
	l.patternB = []byte(pattern)
	l.contains = l.leadPct && l.trailPct && !strings.ContainsRune(pattern, 0)
	return l
}

// Eval implements Expr.
func (l *Like) Eval(rec []byte, sch *types.Schema) types.Value {
	v := l.E.Eval(rec, sch)
	if v.Null {
		return types.NullVal(types.Int64)
	}
	ok := l.Match(v.S)
	if l.Negate {
		ok = !ok
	}
	return boolVal(ok)
}

// Match reports whether s matches the compiled pattern.
func (l *Like) Match(s string) bool {
	if l.hasUnder {
		return likeGeneral(s, l.Pattern)
	}
	// Fast path: ordered substring search over literal segments.
	if len(l.segs) == 0 {
		// Pattern is only % runs (or empty): empty pattern matches only
		// the empty string; any % matches everything.
		if l.Pattern == "" {
			return s == ""
		}
		return true
	}
	rest := s
	for i, seg := range l.segs {
		// Without a trailing %, the final segment must sit at the very end
		// of the string; its leftmost occurrence may end too early.
		if i == len(l.segs)-1 && !l.trailPct {
			if !strings.HasSuffix(rest, seg) {
				return false
			}
			return l.leadPct || i > 0 || len(rest) == len(seg)
		}
		idx := strings.Index(rest, seg)
		if idx < 0 {
			return false
		}
		if i == 0 && !l.leadPct && idx != 0 {
			return false
		}
		rest = rest[idx+len(seg):]
	}
	return true
}

// MatchBytes is Match over a byte-slice view of the string, mirroring
// its logic branch for branch. Batch kernels call it on the raw
// fixed-width CHAR bytes of a block (NUL padding pre-trimmed) so LIKE
// evaluation stays allocation-free per tuple.
func (l *Like) MatchBytes(s []byte) bool {
	if l.hasUnder {
		return likeGeneralBytes(s, l.patternB)
	}
	if len(l.segsB) == 0 {
		if l.Pattern == "" {
			return len(s) == 0
		}
		return true
	}
	rest := s
	for i, seg := range l.segsB {
		if i == len(l.segsB)-1 && !l.trailPct {
			if !bytes.HasSuffix(rest, seg) {
				return false
			}
			return l.leadPct || i > 0 || len(rest) == len(seg)
		}
		idx := bytes.Index(rest, seg)
		if idx < 0 {
			return false
		}
		if i == 0 && !l.leadPct && idx != 0 {
			return false
		}
		rest = rest[idx+len(seg):]
	}
	return true
}

// matchField is MatchBytes over a whole fixed-width CHAR field, whose
// value ends at its first NUL (GetStringBytes), for a pattern of the
// form %…% with no _ and no NUL in it (contains). It searches the
// untrimmed field for the segments in order, leftmost first, and keeps a
// match only if it ends before the first NUL. No segment holds a NUL,
// so no occurrence straddles one: the leftmost occurrence of a segment
// lies before the first NUL exactly when some occurrence does, and the
// answer is MatchBytes's on the trimmed value. A field without a match
// is searched once and never scanned for its NUL.
func (l *Like) matchField(f []byte) bool {
	end := 0
	for _, seg := range l.segsB {
		i := bytes.Index(f[end:], seg)
		if i < 0 {
			return false
		}
		end += i + len(seg)
	}
	return bytes.IndexByte(f[:end], 0) < 0
}

// likeGeneralBytes is likeGeneral over byte slices.
func likeGeneralBytes(s, p []byte) bool {
	si, pi := 0, 0
	star, sStar := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			star = pi
			sStar = si
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			sStar++
			si = sStar
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// likeGeneral is the full wildcard matcher handling '_' via iterative
// backtracking (the classic two-pointer glob algorithm).
func likeGeneral(s, p string) bool {
	si, pi := 0, 0
	star, sStar := -1, 0
	for si < len(s) {
		switch {
		// The wildcard case must precede the literal case: a '%' in the
		// pattern aligned with a literal '%' byte in s is still a wildcard.
		case pi < len(p) && p[pi] == '%':
			star = pi
			sStar = si
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			sStar++
			si = sStar
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// Kind implements Expr.
func (l *Like) Kind(*types.Schema) types.Kind { return types.Int64 }

func (l *Like) String() string {
	op := "LIKE"
	if l.Negate {
		op = "NOT LIKE"
	}
	return fmt.Sprintf("(%s %s '%s')", l.E, op, l.Pattern)
}
