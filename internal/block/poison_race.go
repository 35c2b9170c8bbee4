//go:build race

package block

// poisonArena makes PutBuf overwrite every buffer it pools with 0xA5.
// A holder that recycled a block while a view of it was still live, or
// a producer that left part of a row unwritten on the strength of the
// old zeroing, then reads poison instead of plausible data, and the
// suites that run under the race detector fail on it.
const poisonArena = true
