package block

import "sync"

// The arena is a process-wide, size-classed buffer pool for block
// payloads and hash-table entry pages. Concurrent queries churn
// short-lived 64 KB-ish buffers at a rate where allocator behaviour
// dominates (Durner, Leis & Neumann, "On the Impact of Memory
// Allocation on High-Performance Query Processing"); recycling through
// sync.Pool keeps the hot path off the GC. Buffers above the largest
// class fall through to plain make and the garbage collector.
var arenaClasses = [...]int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// minArenaBuf is the smallest request worth a pooled class slot;
// below it GetBuf hands out exact-size unpooled slices.
const minArenaBuf = 1 << 10

var arenaPools [len(arenaClasses)]sync.Pool

// GetBuf returns a byte slice of length n, drawn from the smallest
// arena class that fits (capacity is the class size, so the slice can
// grow in place up to it). Its contents are unspecified — a recycled
// buffer still holds its previous owner's bytes — so a caller writes
// before it reads: blocks fill whole rows below NumTuples, wire buffers
// are filled by a copy or a read, join pages row by row.
func GetBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	if n < minArenaBuf {
		// Tiny buffers (single-tuple filter outputs, small aggregation
		// results) are cheaper as exact-size garbage than as
		// smallest-class arena slots; PutBuf skips them by capacity.
		return make([]byte, n)
	}
	ci := -1
	for i, c := range arenaClasses {
		if n <= c {
			ci = i
			break
		}
	}
	if ci < 0 {
		return make([]byte, n)
	}
	if v := arenaPools[ci].Get(); v != nil {
		return (*v.(*[]byte))[:n]
	}
	return make([]byte, n, arenaClasses[ci])
}

// PutBuf returns a buffer to the arena. Only the holder of the last
// live reference may call it — the next GetBuf hands the same bytes to
// an unrelated caller. Buffers whose capacity is not exactly a class
// size (oversize, or grown by append) are silently left to the GC.
// Race builds overwrite the buffer first (see poisonArena).
func PutBuf(b []byte) {
	c := cap(b)
	for i, cl := range arenaClasses {
		if c == cl {
			s := b[:cl]
			if poisonArena {
				for j := range s {
					s[j] = 0xA5
				}
			}
			arenaPools[i].Put(&s)
			return
		}
	}
}
