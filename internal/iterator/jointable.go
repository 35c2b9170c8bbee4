package iterator

import "bytes"

// shardBits is the number of hash bits that pick a join or aggregation
// shard (shardOf). A table indexes its buckets from bit shardBits
// upward, clear of the low bits a route by h % n fixes for an even n.
const shardBits = 6

// shardOf returns the shard, 0 to 1<<shardBits - 1, of a key with hash
// h. It takes the top bits: every row an instance receives was routed
// there by h % n, which for an even n fixes the low bits, so shards
// taken from them would leave most of the 64 empty on every receiver.
func shardOf(h uint64) int { return int(h >> (64 - shardBits)) }

// joinTableMinBuckets is a table's first bucket count. A build of a
// few thousand rows leaves some tens in each of the 64 shards, which
// this covers without a rehash.
const joinTableMinBuckets = 64

// joinTable indexes rows by key: the build rows of one join shard (or
// of one spilled shard being re-joined), or the groups of one
// aggregation table, where lookup-then-insert is find-or-insert. It is
// a chained hash table laid out in flat arrays. Row ids are dense
// insertion numbers — the caller stores what belongs to row i at slot i
// of its own arrays — and everything the table holds is integers and
// key bytes, so the garbage collector has nothing to trace in it and an
// insert allocates nothing until an array fills (the table then
// doubles). Not safe for concurrent mutation: join and aggregation both
// mutate under the shard lock, and the join probes only after the build
// barrier.
type joinTable struct {
	rows    []joinRow // by row id
	keys    []byte    // key bytes, in row order
	buckets []int32   // chain heads, -1 when empty; len is a power of two
}

// joinRow is what the table keeps per build row. The three fields sit
// together so that a step along a chain touches one cache line, and a
// doubling reallocates one array.
type joinRow struct {
	hash   uint64 // the row's key hash: a word key's mix, or Hash64
	next   int32  // the row after this one on its bucket's chain, -1 at the end
	keyEnd uint32 // the key is keys[rows[id-1].keyEnd:keyEnd]
}

func (t *joinTable) bucket(h uint64) uint64 {
	return (h >> shardBits) & uint64(len(t.buckets)-1)
}

// insert adds the next row (id = number of rows so far) under key,
// whose hash is h. A word key (its hash is the key) has no bytes: key is
// nil.
func (t *joinTable) insert(h uint64, key []byte) {
	id := len(t.rows)
	if id == len(t.buckets) {
		t.grow(len(key))
	}
	b := t.bucket(h)
	t.keys = append(t.keys, key...)
	t.rows = append(t.rows, joinRow{hash: h, next: t.buckets[b], keyEnd: uint32(len(t.keys))})
	t.buckets[b] = int32(id)
}

// grow doubles the bucket array and the row array's capacity (the load
// factor stays at most one row per bucket), then relinks every row from
// its stored hash. The key slab gets room for that many keys of the
// length seen so far (keyLen, the incoming key's, for the first);
// longer ones fall back on append's own growth.
func (t *joinTable) grow(keyLen int) {
	n := 2 * len(t.buckets)
	if n == 0 {
		n = joinTableMinBuckets
	}
	if rows := len(t.rows); rows > 0 {
		keyLen = (len(t.keys) + rows - 1) / rows
	}
	t.rows = append(make([]joinRow, 0, n), t.rows...)
	if cap(t.keys) < n*keyLen {
		t.keys = append(make([]byte, 0, n*keyLen), t.keys...)
	}
	t.buckets = make([]int32, n)
	for b := range t.buckets {
		t.buckets[b] = -1
	}
	for id := range t.rows {
		b := t.bucket(t.rows[id].hash)
		t.rows[id].next = t.buckets[b]
		t.buckets[b] = int32(id)
	}
}

// lookup returns the first row whose key equals key (hash h), or -1.
// Further matches follow with after.
func (t *joinTable) lookup(h uint64, key []byte) int32 {
	if len(t.buckets) == 0 {
		return -1
	}
	return t.match(t.buckets[t.bucket(h)], h, key)
}

// lookupWord is lookup for a table whose hashes are its keys, inserted
// with no key bytes: a word-key join's build rows (both keys one
// integer column) or an aggregation's word-key groups
// (expr.NewGroupKeyEncoder). The word's mix is a bijection, so equal
// hashes are equal keys and the chain compares hashes only. Further
// matches follow with afterWord.
func (t *joinTable) lookupWord(h uint64) int32 {
	if len(t.buckets) == 0 {
		return -1
	}
	return t.matchWord(t.buckets[t.bucket(h)], h)
}

// afterWord returns the next row after id with hash h, or -1.
func (t *joinTable) afterWord(id int32, h uint64) int32 {
	return t.matchWord(t.rows[id].next, h)
}

// matchWord walks a chain from id to the first row with hash h.
func (t *joinTable) matchWord(id int32, h uint64) int32 {
	for ; id >= 0; id = t.rows[id].next {
		if t.rows[id].hash == h {
			return id
		}
	}
	return -1
}

// after returns the next row after id with the same key, or -1.
func (t *joinTable) after(id int32, h uint64, key []byte) int32 {
	return t.match(t.rows[id].next, h, key)
}

// key returns row id's key bytes, a view into the slab.
func (t *joinTable) key(id int32) []byte {
	start := uint32(0)
	if id > 0 {
		start = t.rows[id-1].keyEnd
	}
	return t.keys[start:t.rows[id].keyEnd]
}

// match walks a chain from id to the first row with hash h and key
// bytes equal to key. Equal hashes do not imply equal keys, so the
// bytes decide; unequal hashes skip the comparison.
func (t *joinTable) match(id int32, h uint64, key []byte) int32 {
	for ; id >= 0; id = t.rows[id].next {
		if t.rows[id].hash == h && bytes.Equal(t.key(id), key) {
			return id
		}
	}
	return -1
}
