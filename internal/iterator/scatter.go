package iterator

import "repro/internal/expr"

// scatter buckets the rows of one block by key hash into per-bucket
// selection vectors: the repartitioning Sender splits a block across
// destinations with it, the hash join's build and the hash aggregation
// across table shards. The vectors are scratch owned by the scatter and
// reused block after block, so a warm one allocates nothing.
type scatter struct {
	sels [][]int32
}

// split returns, for each of n buckets, the row indexes i (of the rows
// keys last encoded) with keys.Hash(i) % n == bucket, in the order sel
// lists them; a nil sel stands for all rows, 0 to rows-1. The result is
// valid until the next call.
func (s *scatter) split(keys *expr.BatchKeyEncoder, sel []int32, rows, n int) [][]int32 {
	sels := s.reset(rows, n)
	m := uint64(n)
	if sel == nil {
		for i := 0; i < rows; i++ {
			d := keys.Hash(i) % m
			sels[d] = append(sels[d], int32(i))
		}
		return sels
	}
	for _, i := range sel {
		d := keys.Hash(int(i)) % m
		sels[d] = append(sels[d], i)
	}
	return sels
}

// shards is split with shardOf(keys.Hash(i)) in place of % n: one bucket
// per join or aggregation shard.
func (s *scatter) shards(keys *expr.BatchKeyEncoder, sel []int32, rows int) [][]int32 {
	sels := s.reset(rows, 1<<shardBits)
	if sel == nil {
		for i := 0; i < rows; i++ {
			d := shardOf(keys.Hash(i))
			sels[d] = append(sels[d], int32(i))
		}
		return sels
	}
	for _, i := range sel {
		d := shardOf(keys.Hash(int(i)))
		sels[d] = append(sels[d], i)
	}
	return sels
}

// reset returns n empty vectors.
func (s *scatter) reset(rows, n int) [][]int32 {
	if len(s.sels) < n {
		// First use: carve every vector's starting capacity — twice an
		// even share of this block — out of one allocation. A vector
		// that outgrows it falls back on append's own growth.
		c := 2*rows/n + 16
		backing := make([]int32, n*c)
		s.sels = make([][]int32, n)
		for d := range s.sels {
			s.sels[d] = backing[d*c : d*c : (d+1)*c]
		}
	}
	sels := s.sels[:n]
	for d := range sels {
		sels[d] = sels[d][:0]
	}
	return sels
}
