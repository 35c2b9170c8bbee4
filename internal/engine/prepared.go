package engine

import (
	"context"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// This file is the prepared-statement / plan-cache face of the
// cluster. Compilation is keyed on the statement's normalized text and
// the catalog version it was planned against, so repeated statements —
// whether re-submitted ad hoc or EXECUTEd through a session — skip
// parse and plan entirely. Cached plans may be parameterized templates
// (expr.Param slots for $n); Exec carries an EXECUTE's argument values
// beside the template and substitutes them as it builds iterators, so
// one template, never copied or written, serves concurrent EXECUTEs.

// CompileCached compiles query against the current catalog, consulting
// the cluster's plan cache first. The returned bool reports a cache
// hit. The plan may be a parameterized template (NumParams > 0): it is
// shared and must not be mutated — hand it to Exec as Request.Plan with
// Request.Args to execute. Every compile in the engine goes through
// here, distributed coordinators and participants included.
func (c *Cluster) CompileCached(query string) (*plan.Plan, bool, error) {
	cache := c.planCache
	if cache == nil {
		p, err := plan.Compile(query, c.cat)
		return p, false, err
	}
	key, err := sql.Normalize(query)
	if err != nil {
		// Not lexable: let the parser produce its richer error.
		p, cerr := plan.Compile(query, c.cat)
		return p, false, cerr
	}
	version := c.cat.Version()
	reg := telemetry.DefaultRegistry()
	if p, ok := cache.Get(key, version); ok {
		reg.Counter(telemetry.CtrPlanCacheHits).Inc()
		return p, true, nil
	}
	reg.Counter(telemetry.CtrPlanCacheMisses).Inc()
	evBefore := cache.Stats().Evictions
	p, err := plan.Compile(query, c.cat)
	if err != nil {
		return nil, false, err
	}
	cache.Put(key, version, p)
	if d := cache.Stats().Evictions - evBefore; d > 0 {
		reg.Counter(telemetry.CtrPlanCacheEvictions).Add(d)
	}
	return p, false, nil
}

// PlanCacheStats snapshots the cluster's plan-cache counters.
func (c *Cluster) PlanCacheStats() plan.CacheStats {
	return c.planCache.Stats()
}

// CatalogVersion reports the catalog version plans are currently keyed
// on; sessions use it to detect stale prepared statements.
func (c *Cluster) CatalogVersion() int64 {
	return c.cat.Version()
}

// RunBound is the EXECUTE path: Exec of a (possibly cached, possibly
// parameterized) plan with args. sqlText labels telemetry and errors.
func (c *Cluster) RunBound(ctx context.Context, p *plan.Plan, args []types.Value, sqlText string) (*Result, error) {
	return c.Exec(ctx, Request{SQL: sqlText, Plan: p, Args: args})
}
