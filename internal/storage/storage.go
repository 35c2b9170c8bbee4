// Package storage implements the per-node in-memory table store: each
// slave node holds one partition of every table, as a list of data
// blocks.
package storage

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/block"
	"repro/internal/types"
)

// Partition is one node's slice of a table.
type Partition struct {
	Schema *types.Schema
	Blocks []*block.Block
	Rows   int64
}

// Store is the table store of a single node. The zero value is an empty
// store.
type Store struct {
	mu    sync.RWMutex
	parts map[string]*Partition
}

// CreatePartition registers an empty partition for a table.
func (s *Store) CreatePartition(table string, sch *types.Schema) *Partition {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &Partition{Schema: sch}
	if s.parts == nil {
		s.parts = make(map[string]*Partition)
	}
	s.parts[strings.ToLower(table)] = p
	return p
}

// Partition returns the local partition of a table.
func (s *Store) Partition(table string) (*Partition, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.parts[strings.ToLower(table)]
	if !ok {
		return nil, fmt.Errorf("storage: no local partition for table %q", table)
	}
	return p, nil
}

// Append adds a sealed block to the partition.
// The block becomes shared: every scan of every query hands its payload
// out again, so no consumer's Recycle may give it to the arena.
func (p *Partition) Append(b *block.Block) {
	b.MarkShared()
	p.Blocks = append(p.Blocks, b)
	p.Rows += int64(b.NumTuples())
}

// Bytes returns the total payload bytes held by the partition.
func (p *Partition) Bytes() int64 {
	var n int64
	for _, b := range p.Blocks {
		n += int64(b.SizeBytes())
	}
	return n
}

// Loader accumulates rows into blocks and appends sealed blocks to a
// partition. It stages the current block's records back to back and
// scatters them into the block's columns when the block is sealed, one
// pass per column. Not safe for concurrent use.
type Loader struct {
	part      *Partition
	blockSize int
	cur       *block.Block
	staged    []byte // cur's records, back to back
}

// NewLoader creates a loader targeting the partition with the given
// block payload size (0 → block.DefaultSize).
func NewLoader(p *Partition, blockSize int) *Loader {
	return &Loader{part: p, blockSize: blockSize}
}

// Append copies a record (the schema's row layout) into the current
// block, sealing the block when it is full.
func (l *Loader) Append(rec []byte) {
	st := l.part.Schema.Stride()
	if l.cur == nil {
		l.cur = block.New(l.part.Schema, l.blockSize, nil)
	}
	l.staged = append(l.staged, rec[:st]...)
	if len(l.staged) == l.cur.Cap()*st {
		l.flush()
	}
}

func (l *Loader) flush() {
	if l.cur != nil && len(l.staged) > 0 {
		l.cur.AppendRows(l.staged)
		l.part.Append(l.cur)
	}
	l.cur, l.staged = nil, l.staged[:0]
}

// Close seals the trailing partial block.
func (l *Loader) Close() { l.flush() }
