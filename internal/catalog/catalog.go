// Package catalog holds table metadata for the cluster: schemas, hash
// partitioning, and statistics. Statistics serve two masters: the query
// optimizer (join build-side choice, exchange placement) and the
// virtual-time simulator, which needs SF-scalable cardinalities for
// cluster-scale runs that are too large to materialize (see DESIGN.md §1).
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/types"
)

// ColStats carries per-column statistics used for cardinality estimation.
type ColStats struct {
	// NDV is the estimated number of distinct values.
	NDV int64
	// Min and Max bound the column's value range (numeric/date columns).
	Min, Max types.Value
}

// TableStats carries table-level statistics.
type TableStats struct {
	Rows int64
	Cols map[string]ColStats
}

// Table describes one base table.
type Table struct {
	Name   string
	Schema *types.Schema
	// PartKey lists the column indices of the hash-partitioning key. All
	// tables in the paper's setup are hash partitioned across the slave
	// nodes on their primary key (Section 5.1).
	PartKey []int
	Stats   TableStats
}

// PartCols returns the names of the partitioning columns.
func (t *Table) PartCols() []string {
	names := make([]string, len(t.PartKey))
	for i, idx := range t.PartKey {
		names[i] = t.Schema.Cols[idx].Name
	}
	return names
}

// Catalog is the master node's table registry.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	version int64
	// Nodes is the number of slave nodes data is partitioned over.
	Nodes int
}

// New returns a catalog for a cluster of n slave nodes.
func New(nodes int) *Catalog {
	if nodes < 1 {
		nodes = 1
	}
	return &Catalog{tables: make(map[string]*Table), Nodes: nodes}
}

// Add registers a table. It returns an error on duplicate names.
func (c *Catalog) Add(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, dup := c.tables[key]; dup {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	c.tables[key] = t
	c.version++
	return nil
}

// Version returns the catalog's schema version: a counter bumped on
// every mutation (table registration, explicit BumpVersion). Plan
// caches key on it, so a plan compiled against an older catalog can
// never be served after the schema moved on.
func (c *Catalog) Version() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// BumpVersion invalidates every plan compiled against the current
// catalog state. Callers that mutate registered tables in place
// (statistics reloads, schema edits in tests) must call it.
func (c *Catalog) BumpVersion() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.version++
}

// MustAdd is Add that panics on error, for setup code.
func (c *Catalog) MustAdd(t *Table) {
	if err := c.Add(t); err != nil {
		panic(err)
	}
}

// Lookup finds a table by case-insensitive name.
func (c *Catalog) Lookup(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// Names returns the registered table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// ColNDV returns the registered distinct-value count of a column named
// without its table: a qualifier ("t.col") is dropped, case is ignored,
// and every table is searched. When several tables carry the column the
// first in name order answers. ok is false when no table has statistics
// for it; each caller substitutes its own guess.
func (c *Catalog) ColNDV(name string) (ndv int64, ok bool) {
	if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
		name = name[dot+1:]
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var from *Table
	for _, t := range c.tables {
		if from != nil && t.Name >= from.Name {
			continue
		}
		for col, cs := range t.Stats.Cols {
			if cs.NDV > 0 && strings.EqualFold(col, name) {
				ndv, from = cs.NDV, t
				break
			}
		}
	}
	return ndv, from != nil
}
